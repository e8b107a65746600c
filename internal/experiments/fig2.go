package experiments

import (
	"repro/internal/bench"
	"repro/internal/mmu"
	"repro/internal/pmem"
	"repro/internal/sim"
)

// Fig2 reproduces Figure 2: the time to memory-map and write one 2MiB
// file, with and without hugepages. The paper's result: with hugepages
// most time is data copy; with base pages two thirds of the time goes to
// page-fault handling, and the whole operation is ~2× slower.
//
// The experiment is run at the MMU level (it is file-system independent):
// identical 2MiB regions, one physically aligned (hugepage-mappable), one
// deliberately misaligned by one base page.
func Fig2(cfg Config, rep *bench.Report) error {
	dev := pmem.New(64 << 20)
	as := mmu.NewAddressSpace(dev)
	for _, config := range []string{"hugepages", "base pages"} {
		phys := int64(8 << 20)
		if config == "base pages" {
			phys += mmu.BasePage // one-page misalignment forbids hugepages
		}
		h := &staticHandler{extents: []mmu.Extent{{FileOff: 0, Phys: phys, Len: mmu.HugePage}}}
		m := as.NewMapping(mmu.HugePage, h)
		ctx := sim.NewCtx(1, 0)
		if err := m.Touch(ctx, 0, mmu.HugePage, true); err != nil {
			return err
		}
		c := ctx.Counters
		rep.Point(labels("fig2", "Config", config), 0).Floats(map[string]float64{
			"TotalUS": float64(ctx.Now()) / 1000,
			"CopyUS":  float64(c.CopyNS) / 1000,
			"FaultUS": float64(c.FaultNS+c.PageWalkNS) / 1000, // page-fault handling + page-table setup
		})
	}
	return nil
}

var fig2Tables = []bench.Table{{
	Title: "Figure 2: memory-map + write a 2MiB file (microseconds)", Where: labels("fig2"),
	Rows: []string{"Config"}, RowHead: "config",
	Cols: []bench.Col{
		{Head: "total", Field: "TotalUS", Fmt: "%.0f"},
		{Head: "copy", Field: "CopyUS", Fmt: "%.0f"},
		{Head: "fault+pagetable", Field: "FaultUS", Fmt: "%.0f"},
	},
}}

// staticHandler serves faults from a fixed extent list.
type staticHandler struct {
	extents []mmu.Extent
}

// Fault implements mmu.FaultHandler: the extent covering the page decides.
func (h *staticHandler) Fault(ctx *sim.Ctx, pageOff int64) (mmu.FaultResult, error) {
	for _, e := range h.extents {
		if pageOff >= e.FileOff && pageOff < e.FileOff+e.Len {
			return mmu.Resolve(e, pageOff), nil
		}
	}
	return mmu.FaultResult{}, mmu.ErrOutOfRange
}
