// Command hostlayers reduces the stack samples of a CPU profile to host
// time per layer of this module. A sample belongs to the package of its
// innermost frame in the module (a repro/... function, or main);
// internal/winefs is split by source file, and samples with no such frame
// make a row of their own, so the shares sum to 100% by construction.
//
//	go tool pprof -traces -lines PROFILE | go run ./cmd/hostlayers
//	go run ./cmd/hostlayers BASE_TRACES CHANGE_TRACES
//
// Given two files of that text, it prints both sides' rows and their
// difference. make host-layers runs it on the profile make profile-posix
// writes; make host-layers BASE=<rev> profiles BenchmarkPosixMix at BASE
// and at the working tree and compares the two.
package main

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/bench"
)

// noFrame is the row of samples with no frame in the module: the runtime,
// the garbage collector, the standard library on its own goroutines.
const noFrame = "(no repro frame)"

// winefsFiles are the source files of internal/winefs that get rows of
// their own; the rest of the package is winefs/other.
var winefsFiles = []string{"journal", "allocator", "file", "tier", "relocate"}

var layersTable = bench.Table{
	Title: "Host CPU time by layer", Rows: []string{"Layer"}, RowHead: "layer",
	Cols: []bench.Col{{Head: "cpu", Field: "MS", Fmt: "%.0fms"}, {Head: "share", Field: "Pct", Fmt: "%.1f%%"}},
}

// pairTable is the two-sided form: base, change, and change minus base.
var pairTable = bench.Table{
	Title: "Host CPU time by layer, base → change", Rows: []string{"Layer"}, RowHead: "layer",
	Cols: []bench.Col{
		{Head: "base cpu", Field: "BaseMS", Fmt: "%.0fms"}, {Head: "base share", Field: "BasePct", Fmt: "%.1f%%"},
		{Head: "cpu", Field: "MS", Fmt: "%.0fms"}, {Head: "share", Field: "Pct", Fmt: "%.1f%%"},
		{Head: "Δcpu", Field: "DeltaMS", Fmt: "%+.0fms"}, {Head: "Δshare", Field: "DeltaPct", Fmt: "%+.1fpp"},
	},
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "hostlayers: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	switch len(args) {
	case 0:
		rep, err := layers(os.Stdin)
		if err != nil {
			return err
		}
		rep.Print(os.Stdout, layersTable)
	case 2:
		var sides [2]*bench.Report
		for i, name := range args {
			f, err := os.Open(name)
			if err != nil {
				return err
			}
			sides[i], err = layers(f)
			f.Close()
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		compare(sides[0], sides[1]).Print(os.Stdout, pairTable)
	default:
		return fmt.Errorf("usage: hostlayers < TRACES, or hostlayers BASE_TRACES CHANGE_TRACES")
	}
	return nil
}

// compare puts two sides' rows together: the change's layers in its
// order, then those only the base has, then the total; a layer one side
// lacks reads 0 there.
func compare(base, change *bench.Report) *bench.Report {
	var order []string
	for _, side := range []*bench.Report{change, base} {
		for _, p := range side.Points {
			if l := p.Labels["Layer"]; l != "total" && !slices.Contains(order, l) {
				order = append(order, l)
			}
		}
	}
	rep := &bench.Report{}
	for _, name := range append(order, "total") {
		at := map[string]string{"Layer": name}
		bms, _ := base.Value("MS", at)
		bpct, _ := base.Value("Pct", at)
		ms, _ := change.Value("MS", at)
		pct, _ := change.Value("Pct", at)
		rep.Point(at, 0).Floats(map[string]float64{"BaseMS": bms, "BasePct": bpct,
			"MS": ms, "Pct": pct, "DeltaMS": ms - bms, "DeltaPct": pct - bpct})
	}
	return rep
}

// layers reads `pprof -traces` text and returns one point per layer,
// largest first, then a total.
func layers(r io.Reader) (*bench.Report, error) {
	per := map[string]time.Duration{}
	var total, val time.Duration
	var layer string
	inSample := false
	flush := func() {
		if inSample {
			per[cmp.Or(layer, noFrame)] += val
			total += val
		}
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inSample, layer, val = false, "", 0
			if !sc.Scan() {
				break
			}
			head, rest, _ := strings.Cut(strings.TrimSpace(sc.Text()), " ")
			d, err := parseValue(head)
			if err != nil {
				return nil, err
			}
			inSample, val, line = true, d, strings.TrimSpace(rest)
		}
		if inSample && layer == "" && line != "" {
			layer = layerOf(line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	flush()
	if total == 0 {
		return nil, fmt.Errorf("no samples: want `go tool pprof -traces -lines` output")
	}
	names := make([]string, 0, len(per))
	for name := range per {
		names = append(names, name)
	}
	slices.SortFunc(names, func(a, b string) int { return cmp.Or(cmp.Compare(per[b], per[a]), cmp.Compare(a, b)) })
	rep := &bench.Report{}
	for _, name := range append(names, "total") {
		d := cmp.Or(per[name], total)
		rep.Point(map[string]string{"Layer": name}, 0).Floats(map[string]float64{
			"MS": float64(d) / 1e6, "Pct": 100 * float64(d) / float64(total)})
	}
	return rep, nil
}

// parseValue reads a sample's value as pprof prints CPU time: 10ms,
// 1.20s, 2.50mins.
func parseValue(s string) (time.Duration, error) {
	s = strings.NewReplacer("mins", "m", "hrs", "h").Replace(s)
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("sample value %q: %w", s, err)
	}
	return d, nil
}

// layerOf names the layer of one frame line, "FUNC FILE:LINE [(inline)]",
// or returns "" for a frame outside the module. FUNC may hold spaces (a
// generic shape), so FILE is the last field.
func layerOf(frame string) string {
	frame = strings.TrimSuffix(frame, " (inline)")
	i := strings.LastIndex(frame, " ")
	if i < 0 {
		return ""
	}
	fn, file := frame[:i], frame[i+1:]
	// The package path ends at the first dot after its last slash; the
	// receiver and any type arguments follow.
	path := fn
	if j := strings.IndexAny(fn, "(["); j >= 0 {
		path = fn[:j]
	}
	slash := strings.LastIndex(path, "/")
	dot := strings.Index(path[slash+1:], ".")
	if dot < 0 {
		return ""
	}
	pkg := path[:slash+1+dot]
	switch {
	case pkg == "main":
		return pkg
	case !strings.HasPrefix(pkg, "repro/"):
		return ""
	}
	name := strings.TrimPrefix(strings.TrimPrefix(pkg, "repro/"), "internal/")
	if name != "winefs" {
		return name
	}
	base, _, _ := strings.Cut(filepath.Base(file), ".go:")
	if slices.Contains(winefsFiles, base) {
		return "winefs/" + base
	}
	return "winefs/other"
}
