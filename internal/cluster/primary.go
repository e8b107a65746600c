package cluster

import (
	"repro/internal/fileserver"
	"repro/internal/winefs"
)

// Target is one replica a primary streams its write log to.
type Target struct {
	Name string
	Dial func() (fileserver.Conn, error)
}

// NewPrimary wires a primary on the mounted fs at epoch, the one way both
// winefsd and Cluster stand one up. With targets, a Replicator announcing
// epoch gets one link per target and is attached to fs's device before the
// server exists, so no client write escapes the record log, and the server
// waits on it after every mutation (PostMutate). Without targets there is
// no Replicator (nil) and nothing to wait on. The server announces epoch in
// its hello; the caller serves it on its listener.
func NewPrimary(fs *winefs.FS, epoch uint64, scfg fileserver.Config, rcfg ReplicatorConfig, targets []Target) (*fileserver.Server, *Replicator) {
	var repl *Replicator
	if len(targets) > 0 {
		rcfg.Epoch = epoch
		repl = NewReplicator(fs, rcfg)
		for _, t := range targets {
			repl.AddReplica(t.Name, t.Dial)
		}
		repl.Attach()
		scfg.PostMutate = repl.PostMutate
	}
	scfg.Epoch = epoch
	return fileserver.New(fs, scfg), repl
}
