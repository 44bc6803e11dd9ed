package pmap

import (
	"fmt"
	"testing"

	"uvm/internal/param"
	"uvm/internal/phys"
)

// Allocation fences for the pmap's fault-path operations. Once a pmap's
// page table and the pv heads of its frames have grown to the sharing
// they see, entering, replacing, removing and write-protecting mappings
// reuses that storage and allocates nothing.

const pmapAllocRuns = 100

func TestEnterAllocsNothing(t *testing.T) {
	f := newFixture(16)
	pm := f.mmu.NewPmap("p")
	pages := []*phys.Page{f.page(t), f.page(t), f.page(t)}
	i := 0
	// Same VAs, rotating pages: every Enter replaces a translation, one pv
	// removal and one pv insertion.
	if allocs := testing.AllocsPerRun(pmapAllocRuns, func() {
		pm.Enter(va0+param.VAddr(i%2)*param.PageSize, pages[i%len(pages)], param.ProtRW, false)
		i++
	}); allocs != 0 {
		t.Errorf("Enter: %.1f allocs, want 0", allocs)
	}
}

// TestBatchEnterRemoveAllocsNothing covers both RemoveBatch walks: a
// window narrower than the page table steps through its VAs, one as wide
// scans and sorts the table.
func TestBatchEnterRemoveAllocsNothing(t *testing.T) {
	const n = 8
	for _, walk := range []bool{false, true} {
		t.Run(fmt.Sprintf("walk=%v", walk), func(t *testing.T) {
			f := newFixture(2 * n)
			pm := f.mmu.NewPmap("p")
			batch := make([]BatchEntry, n)
			for i := range batch {
				batch[i] = BatchEntry{VA: va0 + param.VAddr(i)*param.PageSize, Page: f.page(t), Prot: param.ProtRead}
			}
			end := va0 + n*param.PageSize
			if walk {
				// One mapping outside the window makes the page table
				// larger than the window.
				pm.Enter(0x4000_0000, f.page(t), param.ProtRead, false)
			}
			if allocs := testing.AllocsPerRun(pmapAllocRuns, func() {
				pm.EnterBatch(batch)
				pm.RemoveBatch(va0, end)
			}); allocs != 0 {
				t.Errorf("EnterBatch+RemoveBatch: %.1f allocs, want 0", allocs)
			}
			pm.EnterBatch(batch)
			if allocs := testing.AllocsPerRun(pmapAllocRuns, func() {
				pm.EnterBatch(batch) // every entry already present: rewrites only
			}); allocs != 0 {
				t.Errorf("EnterBatch over present translations: %.1f allocs, want 0", allocs)
			}
		})
	}
}

func TestPageProtectAllocsNothing(t *testing.T) {
	f := newFixture(4)
	pg := f.page(t)
	var pms [4]*Pmap
	for i := range pms {
		pms[i] = f.mmu.NewPmap(fmt.Sprintf("p%d", i))
	}
	enterAll := func() {
		for _, pm := range pms {
			pm.Enter(va0, pg, param.ProtRW, false)
		}
	}
	enterAll()
	if allocs := testing.AllocsPerRun(pmapAllocRuns, func() {
		f.mmu.PageProtect(pg, param.ProtRead)
	}); allocs != 0 {
		t.Errorf("PageProtect(ProtRead) of %d mappings: %.1f allocs, want 0", len(pms), allocs)
	}
	if allocs := testing.AllocsPerRun(pmapAllocRuns, func() {
		enterAll()
		f.mmu.PageProtect(pg, param.ProtNone)
	}); allocs != 0 {
		t.Errorf("Enter ×%d + PageProtect(ProtNone): %.1f allocs, want 0", len(pms), allocs)
	}
	if n := f.mmu.PageMappings(pg); n != 0 {
		t.Fatalf("%d mappings survive PageProtect(ProtNone)", n)
	}
}
