package winefs

import "repro/internal/pmem"

// Replication hooks. The journal stores undo records (old contents), so a
// replica cannot be built by shipping journal entries alone: the authoritative
// stream is the device's physical writes (pmem.WriteObserver). What the FS
// contributes is transaction boundaries: the commit hook fires once per
// resolved journal transaction — after its COMMIT entry is durable, or at
// an abort, which has written nothing — letting a replicator emit an
// ordered commit barrier into the stream. Replica promotion needs no hook
// at all: it reuses the normal Mount
// recovery path (recoverJournals + rebuildFromScan) on the replicated image,
// exactly as a crashed primary would.

// CommitHook observes resolved journal transactions. It runs on the
// committing goroutine while the per-CPU journal is still held, so
// implementations must be fast and must not call back into the FS.
type CommitHook func(txid uint64)

// SetCommitHook installs (or, with nil, removes) the commit hook.
func (fs *FS) SetCommitHook(h CommitHook) {
	if h == nil {
		fs.commitHook.Store(nil)
		return
	}
	fs.commitHook.Store(&h)
}

func (fs *FS) notifyCommit(txid uint64) {
	if p := fs.commitHook.Load(); p != nil {
		(*p)(txid)
	}
}

// Device exposes the backing device (read-only use: replication, divergence
// checking, offline tooling).
func (fs *FS) Device() *pmem.Device { return fs.dev }
