package uvm

import (
	"sync/atomic"
	"testing"

	"uvm/internal/param"
	"uvm/internal/vmapi"
)

// TestAObjPageinRacesFreeRange is the regression test for the
// free-during-pagein race: aobjPager.get used to capture the page's swap
// slot and then let allocObjPageLocked drop o.mu around the frame
// allocation. In that window a concurrent holder of o.mu can reassign
// the slot — freeing the old one with FreeRange — so the captured slot
// is stale and the pagein reads freed (or by then reallocated) disk
// blocks.
//
// The window is a few hundred nanoseconds when memory is free, so a
// blind stress loop never lands in it (and on a single-CPU host never
// can). The test instead constructs the interleaving deterministically:
//
//  1. with the pagedaemon parked in its test gate and no cluster write
//     in flight, the free list is spent to zero on zero-fill faults, so
//     nothing can free a frame and get's allocation must block in
//     waitForFree — with o.mu dropped;
//  2. a reassigner goroutine, parked on o.mu, then gets the lock, moves
//     the backing copy to a fresh slot, frees the old one with
//     FreeRange, and only then opens the daemon's gate;
//  3. the daemon reclaims, the blocked allocation resumes, and get
//     re-acquires o.mu.
//
// The gate ordering guarantees the reassignment happens inside get's
// window on any GOMAXPROCS. The fixed get re-reads aobjSlots[idx] under
// the re-acquired lock and returns the right data; the unfixed one reads
// the freed slot.
func TestAObjPageinRacesFreeRange(t *testing.T) {
	s, m := bootTest(t, 96)
	// Togglable daemon gate: closed = the daemon parks before its next
	// reclaim round. Installed before any allocation, like gateDaemon.
	var gate atomic.Value // chan struct{}; receiving proceeds when closed
	openGate := func() chan struct{} {
		ch := make(chan struct{})
		close(ch)
		return ch
	}
	gate.Store(openGate())
	// parked receives once each time the daemon reaches a closed gate,
	// where it stays until the gate opens; while it is parked no reclaim
	// round is running.
	parked := make(chan struct{}, 1)
	s.pd.gate = func() {
		ch := gate.Load().(chan struct{})
		select {
		case <-ch:
			return
		default:
		}
		parked <- struct{}{}
		<-ch
	}

	o := s.newAObj(1)

	// The victim's anon pages take up every free frame before each
	// pagein; they are what the daemon reclaims while get waits.
	victim := newProc(t, s, "victim")

	fill := func(slot int64) []byte {
		buf := make([]byte, param.PageSize)
		for i := range buf {
			buf[i] = byte(slot)
		}
		return buf
	}
	// Seed: content lives on swap only.
	slot, err := m.Swap.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Swap.WriteSlot(slot, fill(slot)); err != nil {
		t.Fatal(err)
	}
	o.aobjSlots[0] = slot

	for iter := 0; iter < 4; iter++ {
		// Park the daemon and let the cluster writes already on the wire
		// complete, so nothing frees a frame from here on. Then spend the
		// free list on zero-fill faults in a fresh region: the next
		// allocation must block on the parked daemon, and the region's
		// pages are evictable.
		gate.Store(make(chan struct{}))
		s.pd.kick()
		<-parked
		m.Swap.DrainAsync()
		vva, err := victim.Mmap(0, param.VSize(m.Mem.TotalPages())*param.PageSize, param.ProtRW,
			vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
		for i := 0; err == nil && m.Mem.FreePages() > 0; i++ {
			err = victim.Access(vva+param.VAddr(i)*param.PageSize, true)
		}
		if err != nil {
			close(gate.Load().(chan struct{}))
			t.Fatalf("iter %d: filling memory: %v", iter, err)
		}

		o.mu.Lock()
		done := make(chan struct{})
		go func() {
			// Reassigner: acquires o.mu the moment get drops it (get
			// itself is stuck in waitForFree until we open the gate, so
			// this cannot run late), moves the backing copy to a fresh
			// slot and frees the old one — what pageout reassignment
			// does — then lets the daemon run.
			defer close(done)
			o.mu.Lock()
			defer o.mu.Unlock()
			defer func() { close(gate.Load().(chan struct{})) }()
			if _, resident := o.pages[0]; resident {
				t.Error("page resident before the gated pagein ran")
				return
			}
			old := o.aobjSlots[0]
			ns, err := m.Swap.Alloc()
			if err != nil {
				t.Error(err)
				return
			}
			if err := m.Swap.WriteSlot(ns, fill(ns)); err != nil {
				t.Error(err)
				return
			}
			o.aobjSlots[0] = ns
			m.Swap.FreeRange(old, 1)
		}()

		pg, err := o.ops.get(o, 0)
		if err != nil {
			o.mu.Unlock()
			t.Fatalf("iter %d: pagein: %v", iter, err)
		}
		<-done
		cur := o.aobjSlots[0]
		if pg.Data[0] != byte(cur) || pg.Data[param.PageSize-1] != byte(cur) {
			t.Fatalf("iter %d: stale pagein: object points at slot %d (pattern %#x) but page holds %#x",
				iter, cur, byte(cur), pg.Data[0])
		}
		// Evict the page for the next iteration.
		delete(o.pages, 0)
		pg.Dirty.Store(false)
		s.mach.Mem.Dequeue(pg)
		s.mach.Mem.Free(pg)
		o.mu.Unlock()
	}
}
