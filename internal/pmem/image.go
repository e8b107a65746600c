package pmem

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// Image files let the command-line tools (mkfs, agefs, fsck) operate on
// persistent simulated devices across process runs. The format is sparse:
// only backed 2MiB chunks are stored.
//
//	header:  magic u64 | size u64 | nodes u32 | cpus u32
//	chunks:  repeated (base u64 | 2MiB raw bytes), terminated by EOF.
const imageMagic = 0x504d454d494d4731 // "PMEMIMG1"

// Save writes the device's contents to path.
func (d *Device) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriterSize(f, 1<<20)
	var hdr [24]byte
	binary.LittleEndian.PutUint64(hdr[0:], imageMagic)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(d.size))
	binary.LittleEndian.PutUint32(hdr[16:], uint32(d.nodes))
	binary.LittleEndian.PutUint32(hdr[20:], uint32(d.cpus))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	d.snapMu.Lock()
	defer d.snapMu.Unlock()
	for i := range d.chunks {
		c := d.chunks[i].Load()
		if c == nil {
			continue
		}
		// Materialize the logical zeros of uninitialized pages so the
		// raw chunk bytes written below are exactly the device contents.
		d.materialize(int64(i), c)
		var bb [8]byte
		binary.LittleEndian.PutUint64(bb[:], uint64(int64(i)*ChunkSize))
		if _, err := w.Write(bb[:]); err != nil {
			return err
		}
		if _, err := w.Write(c[:]); err != nil {
			return err
		}
	}
	return w.Flush()
}

// Load reads a device image from path.
func Load(path string) (*Device, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<20)
	var hdr [24]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("pmem: short image header: %w", err)
	}
	if binary.LittleEndian.Uint64(hdr[0:]) != imageMagic {
		return nil, fmt.Errorf("pmem: %s is not a device image", path)
	}
	d := NewWithConfig(Config{
		Size:  int64(binary.LittleEndian.Uint64(hdr[8:])),
		Nodes: int(binary.LittleEndian.Uint32(hdr[16:])),
		CPUs:  int(binary.LittleEndian.Uint32(hdr[20:])),
	})
	for {
		var bb [8]byte
		if _, err := io.ReadFull(r, bb[:]); err == io.EOF {
			return d, nil
		} else if err != nil {
			return nil, err
		}
		base := int64(binary.LittleEndian.Uint64(bb[:]))
		if base < 0 || base%ChunkSize != 0 || base >= d.size {
			return nil, fmt.Errorf("pmem: corrupt image: chunk base %d", base)
		}
		c := new(chunkBuf)
		if _, err := io.ReadFull(r, c[:]); err != nil {
			return nil, fmt.Errorf("pmem: truncated chunk at %d: %w", base, err)
		}
		if d.chunks[base/ChunkSize].Swap(c) == nil {
			d.nBacked.Add(1)
		}
		for w := int64(0); w < wordsPerChunk; w++ {
			d.initPages[base/ChunkSize*wordsPerChunk+w].Store(^uint64(0))
		}
	}
}
