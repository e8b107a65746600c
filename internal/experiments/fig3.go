package experiments

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/bench"
	"repro/internal/geriatrix"
)

// Fig3 reproduces Figure 3: the percentage of free space that remains in
// 2MiB-aligned, contiguous regions as utilisation rises under Geriatrix
// aging. The paper's result: ext4-DAX and NOVA fragment steadily — NOVA
// reaching "close to zero 2MB aligned and contiguous regions" by 70%
// utilisation — while (shown here additionally) WineFS retains almost all
// of its aligned free space.
func Fig3(cfg Config, rep *bench.Report) error {
	cfg = cfg.Defaults()
	utils := []float64{0.10, 0.20, 0.30, 0.40, 0.50, 0.60, 0.70, 0.80, 0.90}
	for _, name := range []string{"ext4-DAX", "NOVA", "WineFS"} {
		fs, _, ctx, err := cfg.newFS(name)
		if err != nil {
			return err
		}
		// One continuous aging run per FS, sampling at each utilisation.
		churn := 1.0
		if cfg.Quick {
			churn = 0.25
		}
		ager := geriatrix.New(fs, geriatrix.Config{
			TargetUtil:  utils[0],
			ChurnFactor: churn,
			Seed:        cfg.Seed + 3,
		})
		if _, err := ager.Run(ctx); err != nil {
			return fmt.Errorf("fig3 %s: %w", name, err)
		}
		for _, u := range utils {
			if err := ager.RaiseUtil(ctx, u); err != nil {
				return fmt.Errorf("fig3 %s raise %.2f: %w", name, u, err)
			}
			frac := alloc.AlignedFreeFraction(fs.FreeExtents())
			rep.Point(labels("fig3", "FS", name, "Util", fmt.Sprintf("%g", u*100)), 0).
				Floats(map[string]float64{"AlignedFreePct": frac * 100})
		}
	}
	return nil
}

var fig3Tables = []bench.Table{{
	Title: "Figure 3: free space in aligned+contiguous 2MiB regions (%) vs utilisation (%)", Where: labels("fig3"),
	Rows: []string{"Util"}, RowHead: "util%", Pivot: "FS", Cols: []bench.Col{{Field: "AlignedFreePct", Fmt: "%.1f"}},
}}
