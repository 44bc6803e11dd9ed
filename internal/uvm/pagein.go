package uvm

import (
	"uvm/internal/phys"
	"uvm/internal/sim"
	"uvm/internal/swap"
)

// Clustered pagein: the read-side mirror of the paper's clustered
// pageout. The pagedaemon reassigns a whole dirty cluster — typically
// VA-adjacent anons of one amap — into one contiguous run of swap slots
// and writes it with a single I/O. That layout is exactly what makes the
// reverse trip cheap: when one of those anons faults back in, its VA
// neighbours very likely sit in the adjacent slots, so one positioning
// cost can drag the whole neighbourhood back instead of paying a full
// seek per page as the faults arrive one by one.
//
// There is no slot→anon reverse map, and we do not want one; the amap
// already is the locality map. pageinCluster therefore walks the faulting
// anon's VA neighbours in its amap, keeps those whose swap slots extend
// the faulting slot into a contiguous same-device run, and issues one
// swap.ReadCluster for the run. Neighbours are acquired with TryLock only
// (anon locks are peers in the lock order; blocking could deadlock with a
// concurrent fault walking the other way), so a busy neighbour simply
// drops out of the window. Pages brought in for neighbours are activated
// but not mapped: the fault-time lookahead maps resident neighbours for
// free, and a later fault finds them resident.

// pageinCluster brings a's data in from swap, reading up to
// cfg.PageinCluster adjacent allocated slots in one I/O when the
// faulting anon's VA neighbours occupy them. Called with am.mu and a.mu
// held, a.page == nil and a.swslot valid; on success a.page is resident,
// exactly like anonPageinLocked (the single-slot path it falls back to
// whenever no neighbour is adjacent or resources run short).
func (s *System) pageinCluster(am *amap, a *anon, slot int) error {
	window := s.cfg.PageinCluster
	base := a.swslot
	devLo, devHi := s.mach.Swap.DeviceBounds(base)

	// Collect willing VA neighbours: swapped out, unloaned, slot within
	// the window on the same device, lock available right now.
	bySlot := map[int64]*anon{base: a}
	var extras []*anon
	for d := 1 - window; d < window; d++ {
		if d == 0 {
			continue
		}
		b := am.impl.get(slot + d)
		if b == nil || b == a {
			continue
		}
		if !b.mu.TryLock() {
			continue
		}
		if b.page != nil || b.loaned || b.swslot == swap.NoSlot ||
			b.swslot < devLo || b.swslot >= devHi ||
			b.swslot <= base-int64(window) || b.swslot >= base+int64(window) ||
			bySlot[b.swslot] != nil {
			b.mu.Unlock()
			continue
		}
		bySlot[b.swslot] = b
		extras = append(extras, b)
	}

	// Grow the faulting slot into the largest contiguous run the
	// candidates cover, capped at the window.
	lo, hi := base, base
	for hi-lo < int64(window)-1 {
		grew := false
		if lo > devLo && bySlot[lo-1] != nil {
			lo--
			grew = true
		}
		if hi-lo < int64(window)-1 && bySlot[hi+1] != nil {
			hi++
			grew = true
		}
		if !grew {
			break
		}
	}
	releaseOutside := func() {
		for _, b := range extras {
			if b.swslot < lo || b.swslot > hi {
				b.mu.Unlock()
			}
		}
	}
	releaseOutside()
	if lo == hi {
		return s.anonPageinLocked(a) // nothing adjacent: plain single-slot pagein
	}
	run := make([]*anon, 0, hi-lo+1)
	for sl := lo; sl <= hi; sl++ {
		run = append(run, bySlot[sl])
	}

	// Allocate the frames, then read the whole run with one I/O. Any
	// failure rolls the neighbours back and degrades to the single-slot
	// path for the faulting anon — clustering is an optimisation, never a
	// new way to fail a fault.
	abort := func(pages []*phys.Page) {
		for _, pg := range pages {
			if pg != nil {
				pg.Busy.Store(false)
				s.mach.Mem.Free(pg)
			}
		}
		for _, b := range run {
			if b != a {
				b.mu.Unlock()
			}
		}
	}
	pages := make([]*phys.Page, len(run))
	bufs := make([][]byte, len(run))
	for i, b := range run {
		pg, err := s.allocPage(b, 0, false)
		if err != nil {
			abort(pages)
			return s.anonPageinLocked(a)
		}
		pg.Busy.Store(true)
		pages[i] = pg
		bufs[i] = pg.Data
	}
	if err := s.mach.Swap.ReadCluster(lo, bufs); err != nil {
		abort(pages)
		return s.anonPageinLocked(a)
	}
	for i, b := range run {
		pg := pages[i]
		pg.Busy.Store(false)
		// The swap copy remains valid until the page is dirtied again;
		// keep the slot so a clean eviction is free.
		pg.Dirty.Store(false)
		b.page = pg
		if b != a {
			s.mach.Mem.Activate(pg)
			b.mu.Unlock()
		}
	}
	s.mach.Stats.Inc(sim.CtrPageinClusters)
	s.mach.Stats.Add(sim.CtrPageinClustered, int64(len(run)-1))
	s.mach.Stats.Add("uvm.anon.pagein", int64(len(run)))
	return nil
}

// aobjPageinCluster is the aobj mirror of pageinCluster: on an aobj
// fault whose data lives in swap, neighbouring page *indices* of the
// same object whose slots extend the faulting slot into a contiguous
// same-device run are read with the one I/O. The adjacency information
// is already in aobjSlots — after the pagedaemon clusters an aobj's
// dirty pages out, index-adjacent pages usually occupy adjacent slots,
// which is exactly the layout that makes the return trip cheap.
//
// Called from aobjPager.get with o.mu held, pg the (not yet inserted)
// frame allocated for idx, and slot the re-read o.aobjSlots[idx].
// Neighbour frame allocation drops o.mu (allocObjPageLocked), so every
// candidate — and idx itself — is re-verified under the re-taken lock
// before the read. Returns (page, false, nil) on success with
// o.pages[idx] resident; (nil, true, nil) when idx's own slot state
// shifted while the lock was down (caller re-reads and retries);
// (nil, false, nil) when no neighbour is willing (caller falls back to
// the single-slot read). Clustering is an optimisation, never a new way
// to fail a fault: read errors roll the neighbours back and report
// nothing.
func (s *System) aobjPageinCluster(o *uobject, idx int, slot int64, pg *phys.Page) (*phys.Page, bool, error) {
	window := s.cfg.PageinCluster
	devLo, devHi := s.mach.Swap.DeviceBounds(slot)

	// Candidate neighbours: non-resident indices of the window whose
	// slots lie within the window of ours on the same device.
	candidate := func(nIdx int) (int64, bool) {
		nSlot, ok := o.aobjSlots[nIdx]
		if !ok {
			return 0, false
		}
		if _, resident := o.pages[nIdx]; resident {
			return 0, false
		}
		if nSlot < devLo || nSlot >= devHi ||
			nSlot <= slot-int64(window) || nSlot >= slot+int64(window) {
			return 0, false
		}
		return nSlot, true
	}
	bySlot := map[int64]int{slot: idx}
	for d := 1 - window; d < window; d++ {
		nIdx := idx + d
		if d == 0 || nIdx < 0 || nIdx >= o.sizePg {
			continue
		}
		if nSlot, ok := candidate(nIdx); ok {
			if _, dup := bySlot[nSlot]; !dup {
				bySlot[nSlot] = nIdx
			}
		}
	}
	growRun := func() (int64, int64) {
		lo, hi := slot, slot
		for hi-lo < int64(window)-1 {
			grew := false
			if lo > devLo {
				if _, ok := bySlot[lo-1]; ok {
					lo--
					grew = true
				}
			}
			if hi-lo < int64(window)-1 {
				if _, ok := bySlot[hi+1]; ok {
					hi++
					grew = true
				}
			}
			if !grew {
				break
			}
		}
		return lo, hi
	}
	lo, hi := growRun()
	if lo == hi {
		return nil, false, nil // nothing adjacent
	}

	// Allocate the neighbour frames. Each allocation drops o.mu, so a
	// candidate can be invalidated mid-loop; re-verify the whole set
	// afterwards and shrink the run to what survived.
	frames := map[int64]*phys.Page{slot: pg}
	freeFrames := func(except int64) {
		//uvm:maporder-ok frees interchangeable frames; no cost depends on free order
		for sl, f := range frames {
			if sl != except && f != pg {
				s.mach.Mem.Free(f)
			}
		}
	}
	for sl := lo; sl <= hi; sl++ {
		if sl == slot {
			continue
		}
		nIdx := bySlot[sl]
		npg, raced, err := s.allocObjPageLocked(o, nIdx, false)
		if err != nil || raced {
			// Out of memory, or the neighbour became resident: it simply
			// drops out of the window.
			delete(bySlot, sl)
			continue
		}
		frames[sl] = npg
	}
	// o.mu went down: if idx itself changed hands, unwind completely.
	if existing, resident := o.pages[idx]; resident {
		freeFrames(slot)
		s.mach.Mem.Free(pg)
		return existing, false, nil
	}
	if cur, ok := o.aobjSlots[idx]; !ok || cur != slot {
		freeFrames(slot)
		return nil, true, nil // caller re-reads the slot and retries
	}
	for sl := lo; sl <= hi; sl++ {
		if sl == slot {
			continue
		}
		f, have := frames[sl]
		if !have {
			continue
		}
		if nSlot, ok := candidate(bySlot[sl]); !ok || nSlot != sl {
			s.mach.Mem.Free(f)
			delete(frames, sl)
			delete(bySlot, sl)
		}
	}
	lo, hi = growRun()
	// Frames outside the (possibly shrunk) run go back.
	//uvm:maporder-ok frees interchangeable frames; no cost depends on free order
	for sl, f := range frames {
		if sl < lo || sl > hi {
			s.mach.Mem.Free(f)
			delete(frames, sl)
		}
	}
	if lo == hi {
		return nil, false, nil
	}

	// One I/O for the whole run, under o.mu like the single-slot read.
	run := make([]*phys.Page, 0, hi-lo+1)
	bufs := make([][]byte, 0, hi-lo+1)
	for sl := lo; sl <= hi; sl++ {
		f := frames[sl]
		f.Busy.Store(true)
		run = append(run, f)
		bufs = append(bufs, f.Data)
	}
	if err := s.mach.Swap.ReadCluster(lo, bufs); err != nil {
		for _, f := range run {
			f.Busy.Store(false)
			if f != pg {
				s.mach.Mem.Free(f)
			}
		}
		return nil, false, nil // degrade to the single-slot path
	}
	for sl := lo; sl <= hi; sl++ {
		f := frames[sl]
		f.Busy.Store(false)
		// The swap copy remains valid until the page is dirtied again;
		// keep the slot so a clean eviction is free.
		f.Dirty.Store(false)
		o.pages[bySlot[sl]] = f
		if f != pg {
			s.mach.Mem.Activate(f)
		}
	}
	s.mach.Stats.Add(sim.CtrPageIns, int64(len(run)))
	s.mach.Stats.Inc(sim.CtrAobjPageinClusters)
	s.mach.Stats.Add(sim.CtrAobjPageinClustered, int64(len(run)-1))
	return pg, false, nil
}
