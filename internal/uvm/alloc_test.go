package uvm

import (
	"testing"

	"uvm/internal/param"
	"uvm/internal/vmapi"
)

// Allocation fences for the fault and teardown paths: the only heap
// object a fault may create is the anon it really needs, and everything
// else — owner-lock handoff, lookahead candidates, pv bookkeeping — lives on
// the stack or in reused storage. testing.AllocsPerRun reports the
// average over its runs, so a per-call allocation anywhere on these paths
// shows up as a whole extra object. Frame data is carved once per chunk
// of frames, not once per fault (internal/phys), so a fault that takes a
// never-used frame adds only a fraction of an allocation to the average.

const allocRuns = 64

// allocRegion maps a private anonymous region of npages pages in p.
func allocRegion(t *testing.T, p *Process, npages int) param.VAddr {
	t.Helper()
	va, err := p.Mmap(0, param.VSize(npages*param.PageSize), param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	return va
}

// pageAt returns the VA of page i of the region at va.
func pageAt(va param.VAddr, i int) param.VAddr { return va + param.VAddr(i)*param.PageSize }

func TestZeroFillFaultAllocsOnlyTheAnon(t *testing.T) {
	s, _ := bootTest(t, 1024)
	defer s.Shutdown()
	p := newProc(t, s, "zfod")
	va := allocRegion(t, p, allocRuns+1)
	i := 0
	allocs := testing.AllocsPerRun(allocRuns, func() {
		if err := p.Access(pageAt(va, i), true); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > 1 {
		t.Errorf("zero-fill write fault: %.1f allocs, want ≤ 1 (the anon)", allocs)
	}
}

// forkShared maps npages of private anonymous memory in a fresh parent,
// writes them, forks, and has the child read every page, so each frame
// carries a second mapping. That is the fork-and-share steady state: every
// pv head has grown the overflow storage its frame's sharing needs, and
// later faults reuse it.
func forkShared(t *testing.T, s *System, npages int) (parent, child *Process, va param.VAddr) {
	t.Helper()
	parent = newProc(t, s, "parent")
	va = allocRegion(t, parent, npages)
	size := param.VSize(npages * param.PageSize)
	if err := parent.TouchRange(va, size, true); err != nil {
		t.Fatal(err)
	}
	c, err := parent.Fork("child")
	if err != nil {
		t.Fatal(err)
	}
	child = c.(*Process)
	if err := child.TouchRange(va, size, false); err != nil {
		t.Fatal(err)
	}
	return parent, child, va
}

func TestCowFaultAllocsOnlyTheAnon(t *testing.T) {
	s, _ := bootTest(t, 1024)
	defer s.Shutdown()
	_, child, va := forkShared(t, s, allocRuns+1)
	defer child.Exit()
	before := s.mach.Stats.Get("uvm.cow.copies")
	i := 0
	allocs := testing.AllocsPerRun(allocRuns, func() {
		if err := child.Access(pageAt(va, i), true); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if got := s.mach.Stats.Get("uvm.cow.copies") - before; got != allocRuns+1 {
		t.Fatalf("%d copy-on-write copies, want %d: the fence measured the wrong path", got, allocRuns+1)
	}
	if allocs > 1 {
		t.Errorf("copy-on-write fault: %.1f allocs, want ≤ 1 (the anon)", allocs)
	}
}

func TestResidentCopyBytesAllocsNothing(t *testing.T) {
	s, _ := bootTest(t, 256)
	defer s.Shutdown()
	p := newProc(t, s, "resident")
	va := allocRegion(t, p, 4)
	if err := p.TouchRange(va, 4*param.PageSize, true); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2*param.PageSize) // spans two pages
	if allocs := testing.AllocsPerRun(allocRuns, func() {
		if err := p.WriteBytes(va+100, buf); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("resident WriteBytes: %.1f allocs, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(allocRuns, func() {
		if err := p.ReadBytes(va+100, buf); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("resident ReadBytes: %.1f allocs, want 0", allocs)
	}
}

// TestLookaheadFaultAllocsNothing read-faults a forked child across its
// parent's resident pages after the child's translations are dropped:
// each fault resolves through an existing anon (no anon of its own) and
// maps its resident neighbours in one batch.
func TestLookaheadFaultAllocsNothing(t *testing.T) {
	ahead, behind := param.AdviceNormal.Lookahead()
	stride := ahead + behind + 1
	npages := (allocRuns + 1) * stride
	s, _ := bootTest(t, 2048)
	defer s.Shutdown()
	_, child, va := forkShared(t, s, npages)
	defer child.Exit()
	child.pm.RemoveBatch(va, pageAt(va, npages))
	before := s.mach.Stats.Get("uvm.lookahead.mapped")
	i := 0
	allocs := testing.AllocsPerRun(allocRuns, func() {
		if err := child.Access(pageAt(va, i*stride+behind), false); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if got := s.mach.Stats.Get("uvm.lookahead.mapped") - before; got < int64(allocRuns*(ahead+behind)) {
		t.Fatalf("lookahead mapped %d pages over %d faults: the fence measured the wrong path", got, allocRuns+1)
	}
	if allocs != 0 {
		t.Errorf("lookahead-mapping read fault: %.1f allocs, want 0", allocs)
	}
}

// TestLookaheadWindowFitsStackArrays pins lookaheadMax to the advice table:
// a wider window would spill lookahead's stack arrays onto the heap.
func TestLookaheadWindowFitsStackArrays(t *testing.T) {
	for _, adv := range []param.Advice{param.AdviceNormal, param.AdviceRandom, param.AdviceSequential} {
		if ahead, behind := adv.Lookahead(); ahead+behind > lookaheadMax {
			t.Errorf("advice %v: window %d+%d exceeds lookaheadMax %d", adv, ahead, behind, lookaheadMax)
		}
	}
}

// TestMunmapAllocsIndependentOfPages unmaps fully resident regions of two
// sizes: teardown may allocate a fixed amount per call, never per page.
func TestMunmapAllocsIndependentOfPages(t *testing.T) {
	munmapAllocs := func(npages int) float64 {
		s, _ := bootTest(t, (allocRuns+1)*npages+256)
		defer s.Shutdown()
		p := newProc(t, s, "unmap")
		vas := make([]param.VAddr, allocRuns+1)
		for i := range vas {
			vas[i] = allocRegion(t, p, npages)
			if err := p.TouchRange(vas[i], param.VSize(npages*param.PageSize), true); err != nil {
				t.Fatal(err)
			}
		}
		i := 0
		return testing.AllocsPerRun(allocRuns, func() {
			if err := p.Munmap(vas[i], param.VSize(npages*param.PageSize)); err != nil {
				t.Fatal(err)
			}
			i++
		})
	}
	small, large := munmapAllocs(8), munmapAllocs(64)
	if large != small {
		t.Errorf("Munmap allocs: %.1f for 8 pages, %.1f for 64 pages; want the same constant", small, large)
	}
}
