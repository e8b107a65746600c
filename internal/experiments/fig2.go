package experiments

import (
	"repro/internal/mmu"
	"repro/internal/pmem"
	"repro/internal/sim"
)

// Fig2Row is one bar of Figure 2's breakdown.
type Fig2Row struct {
	Config  string
	TotalUS float64
	CopyUS  float64
	FaultUS float64 // page-fault handling + page-table setup
}

// Fig2 reproduces Figure 2: the time to memory-map and write one 2MiB
// file, with and without hugepages. The paper's result: with hugepages
// most time is data copy; with base pages two thirds of the time goes to
// page-fault handling, and the whole operation is ~2× slower.
//
// The experiment is run at the MMU level (it is file-system independent):
// identical 2MiB regions, one physically aligned (hugepage-mappable), one
// deliberately misaligned by one base page.
func Fig2(cfg Config) ([]Fig2Row, error) {
	cfg = cfg.Defaults()
	dev := pmem.New(64 << 20)
	as := mmu.NewAddressSpace(dev)

	run := func(aligned bool) (Fig2Row, error) {
		phys := int64(8 << 20)
		if !aligned {
			phys += mmu.BasePage // one-page misalignment forbids hugepages
		}
		h := &staticHandler{extents: []mmu.Extent{{FileOff: 0, Phys: phys, Len: mmu.HugePage}}}
		m := as.NewMapping(mmu.HugePage, h)
		ctx := sim.NewCtx(1, 0)
		if err := m.Touch(ctx, 0, mmu.HugePage, true); err != nil {
			return Fig2Row{}, err
		}
		c := ctx.Counters
		return Fig2Row{
			TotalUS: float64(ctx.Now()) / 1000,
			CopyUS:  float64(c.CopyNS) / 1000,
			FaultUS: float64(c.FaultNS+c.PageWalkNS) / 1000,
		}, nil
	}
	huge, err := run(true)
	if err != nil {
		return nil, err
	}
	huge.Config = "hugepages"
	base, err := run(false)
	if err != nil {
		return nil, err
	}
	base.Config = "base pages"
	return []Fig2Row{huge, base}, nil
}

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
