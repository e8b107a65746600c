package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// record is one line of a result file: what -out appends per run.
type record struct {
	Workload string           `json:"workload"`
	Seed     uint64           `json:"seed"`
	Correct  bool             `json:"correct"`
	Metrics  map[string]value `json:"metrics"`
}

// series maps workload, then metric, to the metric's value in each run.
type series map[string]map[string][]float64

func readResults(path string) (series, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := series{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, n, err)
		}
		if !rec.Correct {
			return nil, fmt.Errorf("%s line %d: %s seed %d was not a correct run", path, n, rec.Workload, rec.Seed)
		}
		if out[rec.Workload] == nil {
			out[rec.Workload] = map[string][]float64{}
		}
		for name, v := range rec.Metrics {
			out[rec.Workload][name] = append(out[rec.Workload][name], v.Value)
		}
	}
	return out, sc.Err()
}

// limitOf is the rule a metric is judged by: its bound if it has one,
// else (the per-layer rows) the runs' own spread.
func limitOf(m metric) limit {
	return limit{rel: m.bound, floor: m.floor, lower: m.lower, unbounded: m.bound == 0}
}

// compareFiles prints one row per (workload, metric) present in both
// files: both medians, the move, the bound and the verdict — the
// before/after row every change that claims a gain has to show.
func compareFiles(w io.Writer, before, after string) error {
	b, err := readResults(before)
	if err != nil {
		return err
	}
	a, err := readResults(after)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbefore\tafter\tdelta\tbound\truns\tverdict")
	for _, def := range workloads {
		for _, defs := range [][]metric{endToEnd, perLayer} {
			for _, m := range defs {
				vb, va := b[def.name][m.name], a[def.name][m.name]
				if len(vb) == 0 || len(va) == 0 {
					continue
				}
				delta, v := limitOf(m).compare(vb, va)
				bound := "spread"
				if m.bound > 0 {
					bound = fmt.Sprintf("%.0f%%", 100*m.bound)
				}
				fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%s\t%d/%d\t%s\n",
					def.name, m.name, m.unit, median(vb), median(va),
					100*ratio(delta, median(vb)), bound, len(vb), len(va), v)
			}
		}
	}
	return tw.Flush()
}

// selfCheck is the benchmark checking itself. Each single-thread
// workload runs twice at a twentieth of its size and must end at the
// same virtual instant with the same counters: the simulation is a
// function of the seed. Then all four run twice at full size and every
// end-to-end metric must agree with itself within its own bound: the
// bounds are wider than the noise.
func selfCheck(w io.Writer, seed uint64, seconds int) error {
	bad := 0
	for i := range workloads {
		def := &workloads[i]
		if def.name == "srv_cached" {
			continue // two clients on two goroutines: exact only in distribution
		}
		p := params{seed: seed, ops: int64(seconds) * def.opsPerSecond / 20}
		var vns [2]int64
		var crc [2]uint32
		for k := range vns {
			o, err := pass(def, p)
			if err != nil {
				return fmt.Errorf("%s: %w", def.name, err)
			}
			vns[k], crc[k] = o.finalVNS, countersCRC(&o.cnt)
		}
		ok := vns[0] == vns[1] && crc[0] == crc[1]
		if !ok {
			bad++
		}
		fmt.Fprintf(w, "determinism %-13s sim.final_vns %d / %d  sim.counters_crc32 %08x / %08x  %s\n",
			def.name, vns[0], vns[1], crc[0], crc[1], okWord(ok))
	}
	for i := range workloads {
		def := &workloads[i]
		var runs [2]*result
		for k := range runs {
			r, err := runWorkload(def, seed, int64(seconds)*def.opsPerSecond, false)
			if err != nil {
				return fmt.Errorf("%s: %w", def.name, err)
			}
			if !r.Correct {
				return fmt.Errorf("%s: run was not correct: %v", def.name, r.problems)
			}
			runs[k] = r
		}
		for _, m := range endToEnd {
			x, y := runs[0].Metrics[m.name].Value, runs[1].Metrics[m.name].Value
			_, v := limitOf(m).compare([]float64{x}, []float64{y})
			if v != unchanged {
				bad++
			}
			fmt.Fprintf(w, "agreement   %-13s %-24s %14.6g / %-14.6g bound %3.0f%%  %s\n",
				def.name, m.name, x, y, 100*m.bound, okWord(v == unchanged))
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d checks failed", bad)
	}
	return nil
}

func okWord(ok bool) string {
	if ok {
		return "ok"
	}
	return "FAILED"
}
