package fstest

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/sim"
	"repro/internal/vfs"
)

// handles is a vfs.FS that counts the files it has handed out and not had
// back: Create and Open count one up, Close one down.
type handles struct {
	vfs.FS
	open int
}

func (h *handles) Create(ctx *sim.Ctx, path string) (vfs.File, error) {
	return h.count(h.FS.Create(ctx, path))
}

func (h *handles) Open(ctx *sim.Ctx, path string) (vfs.File, error) {
	return h.count(h.FS.Open(ctx, path))
}

func (h *handles) count(f vfs.File, err error) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	h.open++
	c := &counted{File: f, Mapper: f.(vfs.Mapper), h: h}
	if hp, ok := f.(vfs.HolePuncher); ok {
		return struct {
			*counted
			vfs.HolePuncher
		}{c, hp}, nil
	}
	return c, nil
}

// counted is a file handles gave out. It keeps the file's Mapper, so a
// mapped store faults through the file system's own handler.
type counted struct {
	vfs.File
	vfs.Mapper
	h *handles
}

func (c *counted) Close(ctx *sim.Ctx) error {
	c.h.open--
	return c.File.Close(ctx)
}

// TestApplyEveryKind runs one Op of every kind through Apply on every file
// system: the data operations into a hole, across EOF, through a mapping
// and over a punched page, not on WineFS alone. Each returns nil or the
// file system's missing-capability error, vfs.ErrNotSupported; each that
// succeeds changes vfs.State but Fsync, which changes nothing; and each
// closes every handle it opened.
func TestApplyEveryKind(t *testing.T) {
	page := bytes.Repeat([]byte{0xA5}, 4096)
	ops := []Op{
		{Kind: Mkdir, A: "/d"},
		{Kind: Create, A: "/d/f"},
		{Kind: Append, A: "/d/f", Data: page},
		{Kind: Truncate, A: "/d/f", Size: 10 * 4096},
		{Kind: Write, A: "/d/f", Off: 5 * 4096, Data: page},      // into a hole
		{Kind: Write, A: "/d/f", Off: 10*4096 - 100, Data: page}, // across EOF
		{Kind: Falloc, A: "/d/f", Off: 0, Size: 1 << 20},         // past EOF: grows the file
		{Kind: MapStore, A: "/d/f", Off: 7 * 4096, Data: page[:64]},
		{Kind: Punch, A: "/d/f", Off: 5 * 4096, Size: 4096},
		{Kind: Fsync, A: "/d/f"},
		{Kind: Rename, A: "/d/f", B: "/d/g"},
		{Kind: Unlink, A: "/d/g"},
		{Kind: Rmdir, A: "/d"},
	}
	forAll(t, func(t *testing.T, fs vfs.FS, ctx *sim.Ctx) {
		h := &handles{FS: fs}
		for _, o := range ops {
			before := vfs.State(ctx, h)
			err := Apply(ctx, h, o)
			if err != nil && !((o.Kind == Punch || o.Kind == MapStore) && errors.Is(err, vfs.ErrNotSupported)) {
				t.Fatalf("%s: %v", o, err)
			}
			if changed := vfs.State(ctx, h) != before; changed != (err == nil && o.Kind != Fsync) {
				t.Errorf("%s (err %v): state changed: %v", o, err, changed)
			}
			if h.open != 0 {
				t.Fatalf("%s: %d handles left open", o, h.open)
			}
		}
	})
}
