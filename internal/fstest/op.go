package fstest

import (
	"fmt"
	"strings"

	"repro/internal/alloc"
	"repro/internal/sim"
	"repro/internal/vfs"
	"repro/internal/vmm"
)

// Kind is the system call an Op makes.
type Kind int

// The operation kinds: every call the crash explorer, the fault campaign,
// the remount rule and the conformance sequences make.
const (
	Create Kind = iota
	Mkdir
	Unlink
	Rmdir
	Rename   // A to B
	Append   // Data at A's end; creates A if it cannot open it
	Truncate // A to Size bytes
	Falloc   // preallocates [Off, Off+Size) of A
	Fsync
	Write    // a pwrite of Data at Off: into a hole, over bytes or across EOF
	MapStore // mmap, one store of Data at Off, msync, munmap
	Punch    // deallocates [Off, Off+Size) of A
)

var kindNames = [...]string{
	Create: "create", Mkdir: "mkdir", Unlink: "unlink", Rmdir: "rmdir",
	Rename: "rename", Append: "append", Truncate: "truncate", Falloc: "falloc",
	Fsync: "fsync", Write: "write", MapStore: "mapstore", Punch: "punch",
}

// Op is one system call: A and B are paths, Off and Size a byte range or
// a length, and Data what Append, Write and MapStore store.
type Op struct {
	Kind      Kind
	A, B      string
	Off, Size int64
	Data      []byte
}

func (o Op) String() string {
	switch o.Kind {
	case Rename:
		return fmt.Sprintf("rename(%s,%s)", o.A, o.B)
	case MapStore:
		return fmt.Sprintf("mapstore(%s@%d)", o.A, o.Off)
	case Write:
		return fmt.Sprintf("write(%s@%d+%d)", o.A, o.Off, len(o.Data))
	case Punch:
		return fmt.Sprintf("punch(%s@%d+%d)", o.A, o.Off, o.Size)
	}
	return fmt.Sprintf("%s(%s)", kindNames[o.Kind], o.A)
}

// Apply runs o on fs and returns the call's error, having closed every
// handle it opened. A punch on a file that is not a vfs.HolePuncher and a
// mapped store on one that is not a vfs.Mapper are vfs.ErrNotSupported.
func Apply(ctx *sim.Ctx, fs vfs.FS, o Op) (err error) {
	switch o.Kind {
	case Create:
		f, err := fs.Create(ctx, o.A)
		if err != nil {
			return err
		}
		return f.Close(ctx)
	case Mkdir:
		return fs.Mkdir(ctx, o.A)
	case Unlink:
		return fs.Unlink(ctx, o.A)
	case Rmdir:
		return fs.Rmdir(ctx, o.A)
	case Rename:
		return fs.Rename(ctx, o.A, o.B)
	}
	f, err := fs.Open(ctx, o.A)
	if err != nil && o.Kind == Append {
		f, err = fs.Create(ctx, o.A)
	}
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(ctx); err == nil {
			err = cerr
		}
	}()
	switch o.Kind {
	case Append:
		_, err = f.Append(ctx, o.Data)
	case Truncate:
		err = f.Truncate(ctx, o.Size)
	case Falloc:
		err = f.Fallocate(ctx, o.Off, o.Size)
	case Fsync:
		err = f.Fsync(ctx)
	case Write:
		_, err = f.WriteAt(ctx, o.Data, o.Off)
	case Punch:
		hp, ok := f.(vfs.HolePuncher)
		if !ok {
			return fmt.Errorf("fstest: %T cannot punch holes: %w", f, vfs.ErrNotSupported)
		}
		err = hp.PunchHole(ctx, o.Off, o.Size)
	case MapStore:
		var m *vmm.Mapping
		if m, err = vmm.Map(ctx, f, 0, vmm.Config{Mode: vmm.ModeShared, MapFullFile: true}); err != nil {
			return err
		}
		if err = m.Write(ctx, o.Data, o.Off); err == nil {
			err = m.Msync(ctx, o.Off, int64(len(o.Data)))
		}
		if cerr := m.Close(ctx); err == nil {
			err = cerr
		}
	default:
		err = fmt.Errorf("fstest: unknown op kind %d", o.Kind)
	}
	return err
}

// Step is a row of an operation sequence: an Op and the error Apply must
// return for it. The two are compared with ==: every file system returns
// the vfs errors bare, and a row holds it to that.
type Step struct {
	Op   Op
	Want error
}

// Replay applies each step in turn and reports the first whose error is
// not its Want.
func Replay(ctx *sim.Ctx, fs vfs.FS, steps []Step) error {
	for _, s := range steps {
		if err := Apply(ctx, fs, s.Op); err != s.Want {
			return fmt.Errorf("%s: %v, want %v", s.Op, err, s.Want)
		}
	}
	return nil
}

// Gen is a seeded random sequence of operations over a live file system,
// each picked from the names and sizes the file system shows when it is
// asked: creates, mkdirs, unlinks, rmdirs, renames of files and
// directories to new names or onto others, sparse growth and shrinking,
// writes into holes, over bytes and across EOF, appends, fallocates,
// punches and mapped stores. Rmdir and Rename may pick arguments POSIX
// refuses (the root, a non-empty directory, a file onto a directory).
// Everything it writes is non-zero, so a lost page cannot pass for a hole.
type Gen struct {
	rng  *sim.Rand
	next int // names are never reused: a stale path is a plain ErrNotExist
}

// NewGen returns the generator of seed's sequence.
func NewGen(seed uint64) *Gen { return &Gen{rng: sim.NewRand(seed)} }

// Next picks the next operation for fs as it stands.
func (g *Gen) Next(ctx *sim.Ctx, fs vfs.FS) (Op, error) {
	var files, dirs []string
	err := vfs.Walk(ctx, fs, func(p string, e vfs.DirEntry, err error) error {
		switch {
		case err != nil:
			return fmt.Errorf("readdir %s: %w", p, err)
		case e.IsDir:
			dirs = append(dirs, p)
		default:
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		return Op{}, err
	}
	rng := g.rng
	pick := func(s []string) string { return s[rng.Intn(len(s))] }
	fresh := func(prefix string) string {
		g.next++
		return strings.TrimSuffix(pick(dirs), "/") + fmt.Sprintf("/%s%d", prefix, g.next)
	}
	data := func(n int) []byte {
		p := make([]byte, n)
		for i := range p {
			p[i] = byte(1 + rng.Intn(255))
		}
		return p
	}
	r := rng.Intn(16)
	if len(files) == 0 || r == 0 {
		return Op{Kind: Create, A: fresh("f")}, nil
	}
	switch r {
	case 1:
		return Op{Kind: Mkdir, A: fresh("d")}, nil
	case 2:
		return Op{Kind: Unlink, A: pick(files)}, nil
	case 3:
		return Op{Kind: Rmdir, A: pick(dirs)}, nil
	case 4: // a file to a new name or onto another file; a directory to a new name or onto another
		o := Op{Kind: Rename, A: pick(files), B: fresh("r")}
		switch rng.Intn(4) {
		case 0:
			o.B = pick(files)
		case 1:
			o.A = pick(dirs)
		case 2:
			o.A, o.B = pick(dirs), pick(dirs)
		}
		return o, nil
	}
	o := Op{A: pick(files)}
	fi, err := fs.Stat(ctx, o.A)
	if err != nil {
		return o, err
	}
	size := fi.Size
	within := func() int64 { return rng.Int63n(size + 1) }
	switch r {
	case 5, 6: // sparse growth, by up to a few hugepages
		o.Kind, o.Size = Truncate, size+rng.Int63n(5<<20)
	case 7:
		o.Kind, o.Size = Truncate, within()
	case 8, 9: // into a hole, over existing bytes, or both
		o.Kind, o.Off, o.Data = Write, within(), data(1+rng.Intn(3*alloc.BlockSize))
	case 10: // straddling EOF
		n := 1 + rng.Intn(2*alloc.BlockSize)
		o.Kind, o.Off, o.Data = Write, max(0, size-int64(rng.Intn(n))), data(n)
	case 11:
		o.Kind, o.Data = Append, data(1+rng.Intn(3*alloc.BlockSize))
	case 12:
		o.Kind, o.Off, o.Size = Falloc, within(), 1+rng.Int63n(1<<20)
	case 13:
		o.Kind, o.Off, o.Size = Punch, within(), 1+rng.Int63n(1<<20)
	default: // a mapped store, demand-faulting whatever it lands on
		if size == 0 {
			o.Kind = Fsync // an empty file has no byte to store to
			break
		}
		o.Off = rng.Int63n(size)
		o.Kind, o.Data = MapStore, data(int(min(size-o.Off, int64(1+rng.Intn(2*alloc.BlockSize)))))
	}
	return o, nil
}
