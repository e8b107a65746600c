package pmem

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// ParseSize reads a device size as the command-line tools take it: bytes,
// or an integer with a k, m or g suffix (binary multiples, any case).
func ParseSize(s string) (int64, error) {
	s = strings.ToLower(strings.TrimSpace(s))
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "g"):
		mult = 1 << 30
		s = s[:len(s)-1]
	case strings.HasSuffix(s, "m"):
		mult = 1 << 20
		s = s[:len(s)-1]
	case strings.HasSuffix(s, "k"):
		mult = 1 << 10
		s = s[:len(s)-1]
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, err
	}
	return v * mult, nil
}

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
	if err := d.ForEachChunk(func(off int64, data []byte) error {
		var bb [8]byte
		binary.LittleEndian.PutUint64(bb[:], uint64(off))
		if _, err := w.Write(bb[:]); err != nil {
			return err
		}
		_, err := w.Write(data)
		return err
	}); err != nil {
		return err
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
