package vfs

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/sim"
)

// Walk visits every name in fs breadth first: the root as "/", then the
// root's entries in ReadDir order, then each directory's entries in the
// order the walk met the directories. fn gets each name's path and entry.
// When a directory cannot be listed, fn is called for it a second time,
// with the ReadDir error, and the walk goes on. An error fn returns ends
// the walk and is returned.
func Walk(ctx *sim.Ctx, fs FS, fn func(path string, e DirEntry, err error) error) error {
	if err := fn("/", DirEntry{IsDir: true}, nil); err != nil {
		return err
	}
	for dirs := []string{"/"}; len(dirs) > 0; dirs = dirs[1:] {
		ents, err := fs.ReadDir(ctx, dirs[0])
		if err != nil {
			if err := fn(dirs[0], DirEntry{IsDir: true}, err); err != nil {
				return err
			}
			continue
		}
		for _, e := range ents {
			p := strings.TrimSuffix(dirs[0], "/") + "/" + e.Name
			if err := fn(p, e, nil); err != nil {
				return err
			}
			if e.IsDir {
				dirs = append(dirs, p)
			}
		}
	}
	return nil
}

// State is what an application can see of fs, as text: one line per name,
// sorted. A directory's line is "path dir size=S nlink=N"; a file's is
// "path file size=S nlink=N sha256=H", H the SHA-256 of its bytes, or EIO
// when the media would not return them. A name that cannot be listed,
// stat'ed or read for another reason gets "path ERR error".
func State(ctx *sim.Ctx, fs FS) string {
	var lines []string
	Walk(ctx, fs, func(path string, _ DirEntry, err error) error {
		lines = append(lines, stateLine(ctx, fs, path, err))
		return nil
	})
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

func stateLine(ctx *sim.Ctx, fs FS, path string, err error) string {
	var fi FileInfo
	if err == nil {
		fi, err = fs.Stat(ctx, path)
	}
	if err != nil {
		return fmt.Sprintf("%s ERR %v", path, err)
	}
	if fi.IsDir {
		return fmt.Sprintf("%s dir size=%d nlink=%d", path, fi.Size, fi.Nlink)
	}
	buf := make([]byte, fi.Size)
	f, err := fs.Open(ctx, path)
	if err == nil {
		_, err = f.ReadAt(ctx, buf, 0)
		f.Close(ctx)
	}
	sum := fmt.Sprintf("%x", sha256.Sum256(buf))
	switch {
	case errors.Is(err, ErrIO):
		sum = "EIO"
	case err != nil:
		return fmt.Sprintf("%s ERR %v", path, err)
	}
	return fmt.Sprintf("%s file size=%d nlink=%d sha256=%s", path, fi.Size, fi.Nlink, sum)
}
