package uvm

import (
	"sort"
	"sync"

	"uvm/internal/param"
	"uvm/internal/phys"
	"uvm/internal/sim"
	"uvm/internal/swap"
	"uvm/internal/vfs"
)

// Object writeback pipeline.
//
// PR 3 made the pagedaemon's anonymous pageout asynchronous; this file
// does the same for the *object* side of the house — the paths that
// clean dirty uobject pages without evicting them (Msync, vnode
// recycling, last-unmap write-back) and the pagedaemon's vnode put path.
// Before, each of those wrote one page per I/O, synchronously, while
// holding the object mutex: exactly the serial-I/O bottleneck the
// paper's pager/aiodone design exists to remove.
//
// The flow mirrors how pageout ownership travels with the I/O today:
//
//  1. Collect. Under o.mu, the dirty in-range page indices are
//     snapshotted and sorted (Go map iteration order is random; the
//     flush order decides the disk head's path and so must be
//     byte-deterministic), each page is marked Busy — claiming it for
//     this flush — and its writable mappings are narrowed so a store
//     during the flight faults and sleeps instead of scribbling on a
//     frame the I/O owns.
//  2. Flush. o.mu is released and the pages leave as contiguous-index
//     clusters through the backend's bounded in-flight window — vnode
//     pages to the file through vfs (disk.AsyncWriter), aobj pages to a
//     freshly reassigned contiguous run of swap slots through
//     swap.WriteClusterAsync.
//  3. Complete. Each cluster's completion callback — on an I/O
//     goroutine, holding no locks — clears Dirty then Busy, wakes every
//     path sleeping on a busy page, and signals the submitter's batch.
//     Callers that need msync semantics wait on the batch; callers that
//     only want the data on its way (last-unmap) fire and forget.
//
// Busy pages observed under o.mu always belong to such a flush: every
// other Busy setter (pager get, pagedaemon clustering) holds the
// object/anon lock for the whole busy window. waitObjPageIdle exploits
// that — it sleeps on the system-wide writeback condvar, which exactly
// those completions broadcast.

// maxPageIdx is the whole-object upper bound for index-range flushes.
const maxPageIdx = int(^uint(0) >> 1)

// wbItem is one collected page of a writeback flush.
type wbItem struct {
	idx int
	pg  *phys.Page
}

// wbBatch tracks one caller's outstanding writeback clusters so msync
// and recycle can wait for their own I/O (and only their own).
type wbBatch struct {
	//uvm:lock wbcond
	mu       sync.Mutex
	cond     *sync.Cond
	inFlight int
	pages    int
	err      error
}

func newWbBatch() *wbBatch {
	b := &wbBatch{}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// add records one submitted cluster (called before the submission so a
// concurrent wait cannot return early).
func (b *wbBatch) add() {
	b.mu.Lock()
	b.inFlight++
	b.mu.Unlock()
}

// done records one completed cluster: pages successfully written and the
// write's error, if any.
func (b *wbBatch) done(pages int, err error) {
	b.mu.Lock()
	b.inFlight--
	b.pages += pages
	if err != nil && b.err == nil {
		b.err = err
	}
	if b.inFlight == 0 {
		b.cond.Broadcast()
	}
	b.mu.Unlock()
}

// wait blocks until every cluster added so far has completed, returning
// the pages written and the first error.
func (b *wbBatch) wait() (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for b.inFlight > 0 {
		b.cond.Wait()
	}
	return b.pages, b.err
}

// wakeObjWaiters broadcasts the writeback condvar: some flush completion
// just cleared Busy bits. Safe from completion context (leaf mutex).
func (s *System) wakeObjWaiters() {
	s.wbMu.Lock()
	s.wbGen++
	s.wbCond.Broadcast()
	s.wbMu.Unlock()
}

// waitObjPageIdle sleeps until pg — observed Busy in o's page map — is
// no longer busy, or until the next writeback completion (whichever is
// first). Caller holds o.mu; the lock is dropped while sleeping and
// re-held on return, so the caller must re-look its page up and
// re-decide. A page that is Busy while its object mutex is free is
// always mid-writeback-flush, so the flush completion's broadcast is
// guaranteed to arrive.
func (s *System) waitObjPageIdle(o *uobject, pg *phys.Page) {
	s.mach.Stats.Inc(sim.CtrObjWbWaits)
	s.wbMu.Lock()
	gen := s.wbGen
	o.mu.Unlock()
	for s.wbGen == gen && pg.Busy.Load() {
		s.wbCond.Wait()
	}
	s.wbMu.Unlock()
	o.mu.Lock()
}

// collectDirtyLocked gathers the dirty, idle pages of o with index in
// [loIdx, hiIdx] in ascending index order, marking each Busy (claiming
// it for this flush) and narrowing its writable mappings so a store
// during the flight faults and waits for the completion. With waitBusy,
// pages already claimed by another flush are waited out and re-examined
// (msync semantics: the data must be clean when we return); without it
// they are skipped (fire-and-forget paths). Caller holds o.mu, which is
// dropped and re-taken around waits.
func (s *System) collectDirtyLocked(o *uobject, loIdx, hiIdx int, waitBusy bool) []wbItem {
	var items []wbItem
	for _, idx := range sortedPageIdxs(o, loIdx, hiIdx) {
		pg, ok := o.pages[idx]
		for ok && pg.Busy.Load() && waitBusy {
			s.waitObjPageIdle(o, pg)
			pg, ok = o.pages[idx]
		}
		if !ok || pg.Busy.Load() || !pg.Dirty.Load() {
			continue
		}
		pg.Busy.Store(true)
		// Stores must fault (and then sleep on Busy) while the I/O owns
		// the frame's contents; reads stay mapped.
		s.mach.MMU.PageProtect(pg, param.ProtRX)
		items = append(items, wbItem{idx: idx, pg: pg})
	}
	return items
}

// wbClusters splits the (index-sorted) items into contiguous-index runs
// of at most max pages — each run leaves in one I/O.
func wbClusters(items []wbItem, max int) [][]wbItem {
	var out [][]wbItem
	for len(items) > 0 {
		n := 1
		for n < len(items) && n < max && items[n].idx == items[n-1].idx+1 {
			n++
		}
		out = append(out, items[:n])
		items = items[n:]
	}
	return out
}

// wbClusterMax returns the largest writeback cluster the pipeline
// assembles.
func (s *System) wbClusterMax() int {
	if s.cfg.WritebackCluster > 0 {
		return s.cfg.WritebackCluster
	}
	return s.cfg.MaxCluster
}

// submitWbLocked pushes the collected items into the per-backend bounded
// in-flight window as contiguous-index clusters: vnode pages to the
// file, aobj pages to freshly reassigned contiguous swap slots. Caller
// holds o.mu (needed for the aobj slot reassignment); submissions block
// only while the backend's window is full, whose completions never take
// o.mu, so waiting here cannot deadlock. batch may be nil for
// fire-and-forget callers.
func (s *System) submitWbLocked(o *uobject, items []wbItem, batch *wbBatch) {
	for _, cl := range wbClusters(items, s.wbClusterMax()) {
		if o.vnode != nil {
			// A mapping past EOF zero-fills, so a dirty page can sit
			// beyond the file: it has nowhere to go (same ErrBadOffset
			// the synchronous put raised) and must not poison the
			// in-range pages sharing its contiguous run.
			if n := o.vnode.NumPages(); cl[len(cl)-1].idx >= n {
				cut := 0
				for cut < len(cl) && cl[cut].idx < n {
					cut++
				}
				tail := make([]*phys.Page, 0, len(cl)-cut)
				for _, it := range cl[cut:] {
					tail = append(tail, it.pg)
				}
				s.failWbPages(tail, vfs.ErrBadOffset, batch)
				if cl = cl[:cut]; len(cl) == 0 {
					continue
				}
			}
		}
		pages := make([]*phys.Page, len(cl))
		bufs := make([][]byte, len(cl))
		for i, it := range cl {
			pages[i] = it.pg
			bufs[i] = it.pg.Data
		}
		s.ctrObjWbClusters.Inc()
		s.ctrObjWbPages.Add(int64(len(cl)))
		if batch != nil {
			batch.add()
		}
		done := func(err error) { s.wbWriteDone(pages, err, batch) }
		if o.vnode != nil {
			if err := o.vnode.WriteClusterAsync(cl[0].idx, bufs, done); err != nil {
				s.wbWriteDone(pages, err, batch)
			}
			continue
		}
		// aobj: give the cluster a contiguous run of swap slots (freeing
		// any old scattered ones) so it leaves in one I/O; fall back to
		// per-page slots when swap is too fragmented for a run.
		if start, err := s.mach.Swap.AllocContig(len(cl)); err == nil {
			for i, it := range cl {
				s.reassignSlot(it.pg, start+int64(i))
			}
			if err := s.mach.Swap.WriteClusterAsync(start, bufs, done); err != nil {
				s.wbWriteDone(pages, err, batch)
			}
			continue
		}
		s.submitWbSinglesLocked(o, cl, batch)
	}
}

// submitWbSinglesLocked is the fragmented-swap fallback: each aobj page
// goes to its own slot (existing or freshly allocated) with its own
// asynchronous write. Caller holds o.mu.
func (s *System) submitWbSinglesLocked(o *uobject, cl []wbItem, batch *wbBatch) {
	for _, it := range cl {
		slot := s.currentSlot(it.pg)
		if slot == swap.NoSlot {
			var err error
			slot, err = s.mach.Swap.Alloc()
			if err != nil {
				// Swap exhausted: the page stays dirty and resident.
				s.failWbPages([]*phys.Page{it.pg}, err, batch)
				continue
			}
			s.setSlot(it.pg, slot)
		}
		pages := []*phys.Page{it.pg}
		if batch != nil {
			batch.add()
		}
		if err := s.mach.Swap.WriteClusterAsync(slot, [][]byte{it.pg.Data},
			func(err error) { s.wbWriteDone(pages, err, batch) }); err != nil {
			s.wbWriteDone(pages, err, batch)
		}
	}
}

// failWbPages reports a cluster that could not even be submitted: the
// pages give their Busy claim back (still dirty) and the batch records
// the error.
func (s *System) failWbPages(pages []*phys.Page, err error, batch *wbBatch) {
	s.mach.Stats.Inc(sim.CtrObjWbErrors)
	for _, pg := range pages {
		pg.Busy.Store(false)
	}
	s.wakeObjWaiters()
	if batch != nil {
		batch.add()
		batch.done(0, err)
	}
}

// wbWriteDone is the completion of one writeback cluster. It runs on an
// I/O goroutine holding no locks; per the lock order it may only touch
// page state, the stats and the writeback condvar. The pages stay
// resident and attached — writeback cleans, it does not evict. On
// failure the pages stay dirty (an aobj page's freshly assigned slot
// then holds whatever the failed write left, which is harmless: a dirty
// page is rewritten before its slot is trusted).
//
//uvm:completion
func (s *System) wbWriteDone(pages []*phys.Page, err error, batch *wbBatch) {
	if gate := s.wbGate; gate != nil {
		gate()
	}
	written := 0
	if err != nil {
		s.mach.Stats.Inc(sim.CtrObjWbErrors)
		for _, pg := range pages {
			pg.Busy.Store(false)
		}
	} else {
		for _, pg := range pages {
			pg.Dirty.Store(false)
			pg.Busy.Store(false)
		}
		written = len(pages)
		s.mach.Stats.Add(sim.CtrPageOuts, int64(written))
	}
	s.wakeObjWaiters()
	if batch != nil {
		batch.done(written, err)
	}
}

// flushObjectRange cleans the dirty pages of o with index in
// [loIdx, hiIdx] and waits until they are on backing store, returning
// the number of pages written. With cfg.AsyncWriteback the pages leave
// as contiguous-index clusters through the backend's bounded in-flight
// window while this goroutine merely waits on the completions; otherwise
// each page is put synchronously, in ascending index order (the
// deterministic baseline, and the ablation the objwb experiment
// measures).
func (s *System) flushObjectRange(o *uobject, loIdx, hiIdx int) (int, error) {
	if !s.cfg.AsyncWriteback {
		return s.flushObjectRangeSync(o, loIdx, hiIdx)
	}
	o.mu.Lock()
	items := s.collectDirtyLocked(o, loIdx, hiIdx, true)
	if len(items) == 0 {
		o.mu.Unlock()
		return 0, nil
	}
	batch := newWbBatch()
	s.submitWbLocked(o, items, batch)
	o.mu.Unlock()
	if gate := s.msyncGate; gate != nil {
		gate()
	}
	return batch.wait()
}

// flushObjectRangeSync is the synchronous flush: one put per dirty page,
// under o.mu, in ascending index order. Determinism note: the put order
// decides the disk head's path, so the indices are snapshotted and
// sorted rather than iterated straight off the Go map (whose order is
// random run to run).
func (s *System) flushObjectRangeSync(o *uobject, loIdx, hiIdx int) (int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	n := 0
	for _, idx := range sortedPageIdxs(o, loIdx, hiIdx) {
		pg, ok := o.pages[idx]
		for ok && pg.Busy.Load() {
			s.waitObjPageIdle(o, pg)
			pg, ok = o.pages[idx]
		}
		if !ok || !pg.Dirty.Load() {
			continue
		}
		if err := o.ops.put(o, pg); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// waitObjIdleLocked waits until no page of o is claimed by an in-flight
// flush. Teardown paths (vnode recycling) call it before freeing frames:
// a frame still riding a writeback belongs to the I/O. Caller holds
// o.mu, which is dropped and re-taken around waits.
func (s *System) waitObjIdleLocked(o *uobject) {
	for {
		var busy *phys.Page
		//uvm:maporder-ok waits on any busy page and loops until none remain; order-independent
		for _, pg := range o.pages {
			if pg.Busy.Load() {
				busy = pg
				break
			}
		}
		if busy == nil {
			return
		}
		s.waitObjPageIdle(o, busy)
	}
}

// sortedPageIdxs returns o's resident page indices in [loIdx, hiIdx] in
// ascending order — the deterministic iteration order for flush and
// teardown sweeps (Go map order is random, and sweep order decides the
// disk head's path). Caller holds o.mu.
func sortedPageIdxs(o *uobject, loIdx, hiIdx int) []int {
	idxs := make([]int, 0, len(o.pages))
	//uvm:maporder-ok indices are sorted below
	for idx := range o.pages {
		if idx >= loIdx && idx <= hiIdx {
			idxs = append(idxs, idx)
		}
	}
	sort.Ints(idxs)
	return idxs
}
