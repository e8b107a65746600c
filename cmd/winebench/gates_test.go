package main

import (
	"testing"

	"repro/internal/bench"
)

// TestSingleThreadedGatesMatchBaselines runs the three contention-free
// gates in-process against the committed baselines, so plain `go test`
// catches counter drift without make.
func TestSingleThreadedGatesMatchBaselines(t *testing.T) {
	for _, m := range modes {
		baseline := map[string]string{"mmap": "BENCH_mmap.json", "defrag": "BENCH_defrag.json", "tier": "BENCH_tier.json"}[m.name]
		if baseline == "" {
			continue
		}
		t.Run(m.name, func(t *testing.T) {
			rep, err := m.run(options{cpus: 8, clients: 8, seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			if err := bench.Finish(rep, "", "../../"+baseline); err != nil {
				t.Error(err)
			}
		})
	}
}
