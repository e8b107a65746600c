package pmem

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func TestImageSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "dev.img")

	d := NewWithConfig(Config{Size: 32 << 20, Nodes: 2, CPUs: 4})
	data := make([]byte, 5000)
	for i := range data {
		data[i] = byte(i % 251)
	}
	d.WriteAt(data, 12345)
	d.WriteAt([]byte("tail"), d.Size()-8)

	if err := d.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Size() != d.Size() || got.Nodes() != 2 {
		t.Fatalf("geometry: size=%d nodes=%d", got.Size(), got.Nodes())
	}
	buf := make([]byte, len(data))
	got.ReadAt(buf, 12345)
	if !bytes.Equal(buf, data) {
		t.Fatal("data lost in round trip")
	}
	tail := make([]byte, 4)
	got.ReadAt(tail, d.Size()-8)
	if string(tail) != "tail" {
		t.Fatalf("tail = %q", tail)
	}
	// Unbacked regions stay zero (and sparse on disk).
	z := make([]byte, 100)
	got.ReadAt(z, 16<<20)
	for _, b := range z {
		if b != 0 {
			t.Fatal("phantom data in unbacked region")
		}
	}
	fi, _ := os.Stat(path)
	if fi.Size() > 3*ChunkSize+64 {
		t.Fatalf("image not sparse: %d bytes for 3 touched chunks", fi.Size())
	}
}

func TestImageLoadRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "junk.img")
	if err := os.WriteFile(path, []byte("this is not a device image at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("loaded garbage as an image")
	}
	// Truncated chunk payload.
	d := New(8 << 20)
	d.WriteAt([]byte{1}, 0)
	if err := d.Save(path); err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(path)
	if err := os.WriteFile(path, raw[:len(raw)-100], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("loaded truncated image")
	}
}

func TestImageLoadMissing(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope.img")); err == nil {
		t.Fatal("loaded nonexistent file")
	}
}

func TestParseSize(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		err  bool
	}{
		{"1024", 1024, false},
		{"4k", 4 << 10, false},
		{"16M", 16 << 20, false},
		{"2g", 2 << 30, false},
		{" 1G ", 1 << 30, false},
		{"", 0, true},
		{"abc", 0, true},
		{"1.5g", 0, true},
		{"512MiB", 0, true}, // the suffix is one letter
	}
	for _, c := range cases {
		got, err := ParseSize(c.in)
		if c.err {
			if err == nil {
				t.Errorf("ParseSize(%q) = %d, want error", c.in, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("ParseSize(%q) = %d, %v; want %d", c.in, got, err, c.want)
		}
	}
}
