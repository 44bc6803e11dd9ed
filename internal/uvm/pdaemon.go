package uvm

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"

	"uvm/internal/param"
	"uvm/internal/phys"
	"uvm/internal/sim"
	"uvm/internal/swap"
	"uvm/internal/vmapi"
)

// Sentinel results of waiting on the pagedaemon; both send the allocator
// down the direct-reclaim fallback path.
var (
	errPdStalled  = errors.New("uvm: pagedaemon reclaim round freed nothing")
	errPdShutdown = errors.New("uvm: pagedaemon has shut down")
)

// pagedaemon is UVM's asynchronous pageout daemon: one goroutine per
// booted System that reclaims memory so allocating goroutines do not
// have to.
//
// Wakeup protocol:
//
//  1. phys.Mem calls kick (via the low-water callback) whenever an
//     allocation leaves fewer than `low` pages free. kick is a
//     non-blocking send on a 1-buffered doorbell channel, so it is safe
//     from any context and coalesces redundant wakeups.
//  2. An allocator that finds the free list empty registers as a waiter
//     and blocks on the condition variable in waitForFree; the daemon
//     broadcasts after every completed reclaim round.
//  3. The daemon reclaims toward the high watermark (2×low) per round
//     and re-kicks itself while it is making progress below the low
//     mark, so it normally runs ahead of allocators and they never block
//     at all.
//  4. A round that frees nothing and has no pageout I/O in flight does
//     not re-kick: the waiters are told (errPdStalled) and fall back to
//     reclaiming directly, which tolerates owners locked by the waiting
//     goroutine itself the same way the daemon does (TryLock + skip).
//     A fruitless round that *does* have clusters on the wire is not a
//     stall: waiters keep sleeping until a completion (asyncDone) frees
//     the pages and bumps the generation.
//
// Rounds fan out to cfg.ReclaimWorkers parallel workers over disjoint
// LRU runs of one inactive-queue snapshot (reclaimRound); the daemon
// remains the only watermark coordinator.
//
// Shutdown (System.Shutdown) marks the daemon, broadcasts so blocked
// allocators unwedge immediately, joins the goroutine, and then drains
// the async write window. The System stays usable afterwards —
// allocPage degrades to inline reclaim — so teardown ordering is
// forgiving.
type pagedaemon struct {
	s *System

	// Watermarks, fixed at boot: wake the daemon when free pages drop
	// below low; each round reclaims toward high (2×low).
	low, high int

	wake chan struct{} // doorbell; buffered(1), rung by kick
	done chan struct{} // closed when the daemon goroutine exits

	//uvm:lock daemon
	mu         sync.Mutex
	cond       *sync.Cond // signalled after every completed round
	gen        uint64     // completed reclaim passes + async completions
	genFreed   int        // pages freed by the most recent pass/completion
	waiters    int        // allocators currently blocked in waitForFree
	inflight   int        // async pageout clusters submitted, not yet completed
	reclaiming int        // reclaim passes running: daemon rounds and direct reclaims
	shutdown   bool

	// gate, when non-nil, runs before each reclaim round. Test hook: it
	// lets the shutdown-while-blocked and wakeup tests hold the daemon
	// in a known state. Must be set before the first allocation.
	gate func()
}

func newPagedaemon(s *System, low int) *pagedaemon {
	pd := &pagedaemon{
		s:    s,
		wake: make(chan struct{}, 1),
		done: make(chan struct{}),
		low:  low,
		high: 2 * low,
	}
	pd.cond = sync.NewCond(&pd.mu)
	return pd
}

// kick rings the daemon's doorbell. Non-blocking and lock-free, so it is
// safe from the phys.Mem low-water callback inside page allocation and
// from any goroutine holding VM locks.
func (pd *pagedaemon) kick() {
	select {
	case pd.wake <- struct{}{}:
		pd.s.mach.Stats.Inc(sim.CtrPdWakeups)
	default:
	}
}

func (pd *pagedaemon) stopping() bool {
	pd.mu.Lock()
	defer pd.mu.Unlock()
	return pd.shutdown
}

// run is the daemon goroutine: sleep on the doorbell, reclaim toward the
// high watermark, wake any blocked allocators, repeat.
func (pd *pagedaemon) run() {
	defer close(pd.done)
	for {
		<-pd.wake
		if pd.stopping() {
			return
		}
		if gate := pd.gate; gate != nil {
			gate()
			if pd.stopping() {
				return
			}
		}
		free := pd.s.mach.Mem.FreePages()
		if free >= pd.low {
			pd.mu.Lock()
			if pd.waiters == 0 {
				// Spurious wakeup: no one waiting and memory is fine.
				pd.mu.Unlock()
				continue
			}
			// Waiters raced a round that already refilled the free list
			// (their Alloc failed before it completed): report the round
			// without evicting anything more.
			pd.gen++
			pd.genFreed = free
			pd.cond.Broadcast()
			pd.mu.Unlock()
			continue
		}
		target := pd.high - free
		if target < pd.s.cfg.ReclaimBatch {
			target = pd.s.cfg.ReclaimBatch
		}
		pd.mu.Lock()
		pd.reclaiming++
		pd.mu.Unlock()
		freed, submitted := pd.s.reclaimRound(target)
		pd.s.ctrPdRounds.Inc()

		pd.mu.Lock()
		pd.reclaiming--
		pd.gen++
		pd.genFreed = freed
		pd.cond.Broadcast()
		pd.mu.Unlock()

		// Still under pressure and making progress — pages freed, or
		// clusters on the wire whose completions will free them: run
		// another round without waiting for the next allocation to ring
		// the doorbell. (A round that only submitted overlaps its I/O
		// with the next scan; if the next scan finds everything already
		// in flight it frees and submits nothing, stops re-kicking, and
		// the completions take over via asyncDone's kick.)
		if (freed > 0 || submitted > 0) && pd.s.mach.Mem.FreePages() < pd.low {
			pd.kick()
		}
	}
}

// addInFlight records an asynchronous cluster submission; its matching
// asyncDone arrives from the completion callback.
func (pd *pagedaemon) addInFlight() {
	pd.mu.Lock()
	pd.inflight++
	pd.mu.Unlock()
}

// asyncDone is called from an async pageout completion callback: freed
// pages (0 if the write failed) have just been returned to the free
// list. It reports the completion as a generation so blocked allocators
// retry, and keeps the daemon running if memory is still short.
func (pd *pagedaemon) asyncDone(freed int) {
	pd.mu.Lock()
	pd.inflight--
	pd.gen++
	pd.genFreed = freed
	pd.cond.Broadcast()
	pd.mu.Unlock()
	if freed > 0 && pd.s.mach.Mem.FreePages() < pd.low {
		pd.kick()
	}
}

// waitForFree blocks the calling allocator until the daemon completes a
// reclaim round or an async pageout completion frees pages (or until
// shutdown). nil means pages were freed and the allocation is worth
// retrying; errPdStalled/errPdShutdown mean the caller should reclaim
// directly. A round that freed nothing but has cluster writes in flight
// is not a stall — the allocator keeps waiting for the completion, like
// a kernel thread sleeping on pageout I/O.
func (pd *pagedaemon) waitForFree() error {
	pd.s.mach.Stats.Inc(sim.CtrPdBlocked)
	// Wakeup-to-satisfy latency: how long (simulated) this allocator was
	// stalled. The clock advances on other goroutines' work while we
	// sleep, so the delta is the paging work the stall waited out.
	start := pd.s.mach.Clock.Now()
	defer func() {
		pd.s.mach.Stats.Add(sim.CtrPdWaitNs, int64(pd.s.mach.Clock.Since(start)))
	}()
	pd.mu.Lock()
	defer pd.mu.Unlock()
	if pd.shutdown {
		return errPdShutdown
	}
	pd.waiters++
	defer func() { pd.waiters-- }()
	pd.kick()
	for {
		start := pd.gen
		for pd.gen == start && !pd.shutdown {
			pd.cond.Wait()
		}
		switch {
		case pd.gen == start: // unblocked by shutdown, not by a round
			return errPdShutdown
		case pd.genFreed > 0:
			return nil
		case pd.inflight > 0:
			continue // pageout I/O on the wire: its completion will free pages
		}
		return errPdStalled
	}
}

// directReclaim is the allocator's fallback when the daemon cannot help
// (it stalled or has shut down): one synchronous reclaim pass on the
// calling goroutine, reported to the daemon's waiters like a round. A
// fruitless pass is not yet a deadlock while other reclaim work is under
// way: a concurrent reclaimer (a daemon round, another allocator's
// direct reclaim) may have claimed every evictable page for a cluster it
// is still writing, and async pageout may have clusters on the wire.
// Their pages come free when that work finishes, so the caller waits for
// it, and reports ErrDeadlock only once nothing is left in progress and
// nothing was freed.
func (pd *pagedaemon) directReclaim(target int) error {
	pd.mu.Lock()
	pd.reclaiming++
	pd.mu.Unlock()
	freed := pd.s.reclaimCount(target)
	pd.mu.Lock()
	defer pd.mu.Unlock()
	pd.reclaiming--
	pd.gen++
	pd.genFreed = freed
	pd.cond.Broadcast()
	for freed == 0 && (pd.reclaiming > 0 || pd.inflight > 0) {
		start := pd.gen
		for pd.gen == start {
			pd.cond.Wait()
		}
		if pd.genFreed > 0 || pd.s.mach.Mem.FreePages() > 0 {
			return nil
		}
	}
	if freed == 0 {
		return vmapi.ErrDeadlock
	}
	return nil
}

// stop shuts the daemon down: blocked allocators are released
// immediately, then the goroutine is joined. Idempotent.
func (pd *pagedaemon) stop() {
	pd.mu.Lock()
	already := pd.shutdown
	pd.shutdown = true
	pd.cond.Broadcast()
	pd.mu.Unlock()
	if !already {
		// Ring the doorbell so a daemon asleep on it re-checks the flag.
		select {
		case pd.wake <- struct{}{}:
		default:
		}
	}
	<-pd.done
}

const (
	// directReclaimLimit bounds consecutive direct-reclaim fallbacks per
	// allocation, preserving the pre-daemon "4 attempts then deadlock"
	// semantics for inline mode.
	directReclaimLimit = 3
	// allocRetryLimit is a livelock backstop: an allocator that keeps
	// losing freshly reclaimed pages to other goroutines eventually
	// reports deadlock rather than spinning forever.
	allocRetryLimit = 1 << 16
)

// allocPage allocates a page frame. On shortage the allocating goroutine
// does not reclaim inline (unless cfg.InlineReclaim): it wakes the
// pagedaemon, blocks until a reclaim round completes, and retries.
// Direct reclaim remains as a fallback for when the daemon cannot make
// progress — for example when this goroutine itself holds the lock of
// the only owner with evictable pages — and after Shutdown.
func (s *System) allocPage(owner any, off param.PageOff, zero bool) (*phys.Page, error) {
	direct := 0
	for attempt := 0; attempt < allocRetryLimit; attempt++ {
		pg, err := s.mach.Mem.Alloc(owner, off, zero)
		if err == nil {
			return pg, nil
		}
		if s.pd != nil {
			if werr := s.pd.waitForFree(); werr == nil {
				continue // the daemon freed pages; retry the allocation
			}
			// The daemon stalled or is shutting down. Memory may still
			// have been freed since our failed attempt (by the round we
			// raced, or by frees elsewhere): retry before escalating.
			if pg, err := s.mach.Mem.Alloc(owner, off, zero); err == nil {
				return pg, nil
			}
		}
		// Inline mode, a stalled daemon, or shutdown: reclaim directly.
		if direct++; direct > directReclaimLimit {
			return nil, vmapi.ErrDeadlock
		}
		var rerr error
		if s.pd != nil {
			s.ctrPdDirect.Inc()
			rerr = s.pd.directReclaim(s.cfg.ReclaimBatch)
		} else {
			rerr = s.reclaim(s.cfg.ReclaimBatch)
		}
		if rerr != nil {
			return nil, rerr
		}
	}
	return nil, vmapi.ErrDeadlock
}

// ownerSet tracks the anon/object locks the pagedaemon holds for pages
// it has clustered for pageout. Owners are acquired with TryLock only —
// reclaim runs inside allocation paths that may already hold map, amap,
// anon or object locks, and skipping a busy owner is always safe —
// so the pagedaemon can never deadlock against a fault in progress.
type ownerSet map[any]struct{}

func (os ownerSet) holds(owner any) bool { _, ok := os[owner]; return ok }

// tryAcquire locks owner unless it is already held by this set or
// unavailable. It reports whether the caller may proceed under the lock,
// and whether the lock was newly acquired (and must be released if the
// page is not clustered).
func (os ownerSet) tryAcquire(owner any) (proceed, acquired bool) {
	if os.holds(owner) {
		return true, false
	}
	switch o := owner.(type) {
	case *anon:
		if !o.mu.TryLock() {
			return false, false
		}
	case *uobject:
		if !o.mu.TryLock() {
			return false, false
		}
	default:
		return false, false
	}
	return true, true
}

func (os ownerSet) keep(owner any) { os[owner] = struct{}{} }

func releaseOwner(owner any) {
	switch o := owner.(type) {
	case *anon:
		o.mu.Unlock()
	case *uobject:
		o.mu.Unlock()
	}
}

func (os ownerSet) releaseAll() {
	//uvm:maporder-ok unlock order of independent owner locks is immaterial
	for owner := range os {
		releaseOwner(owner)
		delete(os, owner)
	}
}

// reclaim is UVM's pagedaemon. Its signature improvement over BSD VM (§6)
// is aggressive clustering of anonymous memory: because anonymous pages
// have no permanent home on backing store, the daemon *reassigns* their
// swap locations so that all the dirty anonymous pages it has collected —
// whatever their offsets — occupy one contiguous run of slots and go out
// in a single large I/O.
//
// Concurrency: each candidate's owner is TryLocked and the page
// re-verified under the lock (it may have been freed, re-homed or
// re-referenced since the queue snapshot). Owners of clustered pages
// stay locked until the cluster I/O completes, so a concurrent fault on
// a page mid-pageout blocks on the anon and then pages back in from the
// freshly assigned slot. Multiple reclaimers (the daemon plus
// direct-reclaim fallbacks) may run at once: the TryLock/re-verify
// protocol makes them skip each other's pages.
//
// reclaim reports ErrDeadlock when nothing could be freed; reclaimCount
// is the count-returning variant used by the direct-reclaim fallback.
// Both are synchronous full-range scans: an allocating goroutine needs a
// page now, so its pageout never goes async.
func (s *System) reclaim(target int) error {
	if s.reclaimCount(target) == 0 {
		return vmapi.ErrDeadlock
	}
	return nil
}

func (s *System) reclaimCount(target int) int {
	freed, _ := s.reclaimScan(target, false)
	return freed
}

// reclaimRound is the daemon's per-round entry point. The daemon itself
// is the only coordinator — it sized the round's target from the
// watermarks — and this function fans the round out to cfg.ReclaimWorkers
// workers (or runs the classic single scan for 0/1 workers, which keeps
// single-threaded runs byte-deterministic). It returns the pages freed
// synchronously and the pages submitted as in-flight asynchronous
// cluster writes.
//
// The workers share one snapshot of the inactive queue in global LRU
// order and claim it in runs of cfg.MaxCluster pages from a common
// cursor, so every run is a single worker's and every cluster it writes
// holds consecutive LRU pages. That keeps the swap layout the single
// daemon would produce: pages evicted together sit in adjacent slots in
// the order they were last used, and a later sequential pagein reads
// them back without a seek per page. (Partitioning by queue shard
// instead would hand each worker a strided slice of the LRU order — the
// allocator spreads consecutive frames over the shards — and scatter
// every producer's pages across the clusters.)
func (s *System) reclaimRound(target int) (freed, submitted int) {
	workers := s.cfg.ReclaimWorkers
	if workers < 2 {
		return s.reclaimScan(target, true)
	}
	run := s.cfg.MaxCluster
	if run < 1 {
		run = 1
	}
	for pass := 0; pass < 4 && freed+submitted < target; pass++ {
		if s.mach.Mem.InactivePages() < target*2 {
			s.mach.Mem.RefillInactive(target * 2)
		}
		var snap []*phys.Page
		s.mach.Mem.ScanInactive(target*4, func(pg *phys.Page) bool {
			snap = append(snap, pg)
			return true
		})
		if len(snap) == 0 {
			break
		}
		want := target - freed - submitted
		var (
			wg      sync.WaitGroup
			next    atomic.Int64
			freedN  atomic.Int64
			subN    atomic.Int64
			stalled atomic.Bool
		)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !stalled.Load() {
					left := want - int(freedN.Load()+subN.Load())
					lo := int(next.Add(int64(run))) - run
					if left <= 0 || lo >= len(snap) {
						break
					}
					chunk := snap[lo:min(lo+run, len(snap))]
					f, sub, ok := s.reclaimPass(func(fn func(*phys.Page) bool) {
						for _, pg := range chunk {
							if !fn(pg) {
								return
							}
						}
					}, left, true)
					freedN.Add(int64(f))
					subN.Add(int64(sub))
					if !ok {
						stalled.Store(true)
					}
				}
				s.ctrPdWorkerRounds.Inc()
			}()
		}
		wg.Wait()
		freed += int(freedN.Load())
		submitted += int(subN.Load())
		if stalled.Load() {
			break
		}
	}
	if freed > 0 {
		s.mach.Stats.Add(sim.CtrPdFreed, int64(freed))
	}
	return freed, submitted
}

// reclaimScan runs the second-chance reclaim scan over the whole
// inactive queue: up to four passes of collect-cluster-evict until
// target pages are freed (or submitted, for the daemon's asynchronous
// pageout). The single daemon and the direct-reclaim fallback differ
// only in their target and async flag.
func (s *System) reclaimScan(target int, async bool) (freed, submitted int) {
	for pass := 0; pass < 4 && freed+submitted < target; pass++ {
		if s.mach.Mem.InactivePages() < target*2 {
			s.mach.Mem.RefillInactive(target * 2)
		}
		f, sub, ok := s.reclaimPass(func(fn func(*phys.Page) bool) {
			s.mach.Mem.ScanInactive(target*4, fn)
		}, target-freed-submitted, async)
		freed += f
		submitted += sub
		if !ok {
			break
		}
	}
	if freed > 0 {
		s.mach.Stats.Add(sim.CtrPdFreed, int64(freed))
	}
	return freed, submitted
}

// reclaimPass is one collect-cluster-evict pass, the body every reclaim
// flavour shares: it visits the candidate pages scan produces until want
// pages are freed or submitted, evicting clean pages, collecting dirty
// anonymous pages into one pageout cluster and dirty vnode pages into
// per-object writeback flights, and then writes them out: through the
// async write windows in a daemon round (async), synchronously in direct
// and inline reclaim, whose caller needs a page now. ok is false
// when the cluster could not be written (e.g. swap exhausted): its pages
// are back on the queues and the caller should stop trying.
func (s *System) reclaimPass(scan func(func(*phys.Page) bool), want int, async bool) (freed, submitted int, ok bool) {
	var cluster []*phys.Page
	// vnWb collects dirty vnode pages for the object writeback
	// pipeline (async rounds only): per-object, submitted as
	// contiguous-index cluster writes after the scan. vnWbOrder
	// remembers first-touch order so flights are submitted in the
	// deterministic order the queue scan discovered the objects —
	// submission order decides the async writer's disk-head path.
	var vnWb map[*uobject][]*phys.Page
	var vnWbOrder []*uobject
	vnAsync := async && !s.cfg.DisableClustering
	vnPages := 0
	held := make(ownerSet)
	scan(func(pg *phys.Page) bool {
		if freed+submitted+len(cluster)+vnPages >= want {
			return false
		}
		if pg.Referenced.Load() {
			// Second chance — but only if the page is still inactive;
			// it may have been freed (and even reallocated) since the
			// queue snapshot.
			s.mach.Mem.ActivateIfInactive(pg)
			return true
		}
		owner := pg.Owner()
		proceed, acquired := held.tryAcquire(owner)
		if !proceed {
			return true // owner busy (or gone): skip this page
		}
		release := func() {
			if acquired {
				releaseOwner(owner)
			}
		}
		// Re-verify under the owner lock: the frame must still belong
		// to this owner and still be evictable.
		if pg.Owner() != owner || pg.Busy.Load() || pg.Wired() || pg.Loaned() {
			release()
			return true
		}
		switch o := owner.(type) {
		case *anon:
			if o.page != pg {
				release()
				return true
			}
			s.mach.MMU.PageProtect(pg, param.ProtNone)
			if pg.Dirty.Load() {
				if len(cluster) < s.cfg.MaxCluster {
					pg.Busy.Store(true)
					s.mach.Mem.Dequeue(pg)
					cluster = append(cluster, pg)
					held.keep(owner)
				} else {
					release()
				}
				return true
			}
			// Clean anon page: the swap copy is current; just free.
			o.page = nil
			s.mach.Mem.Dequeue(pg)
			s.mach.Mem.Free(pg)
			freed++
			release()
		case *uobject:
			idx := param.OffToPage(pg.Off())
			if o.pages[idx] != pg {
				release()
				return true
			}
			s.mach.MMU.PageProtect(pg, param.ProtNone)
			if o.aobjSlots != nil {
				// Anonymous object pages cluster exactly like anons.
				if pg.Dirty.Load() {
					if len(cluster) < s.cfg.MaxCluster {
						pg.Busy.Store(true)
						s.mach.Mem.Dequeue(pg)
						cluster = append(cluster, pg)
						held.keep(owner)
					} else {
						release()
					}
					return true
				}
				delete(o.pages, idx)
				s.mach.Mem.Dequeue(pg)
				s.mach.Mem.Free(pg)
				freed++
				release()
				return true
			}
			// Vnode page: clean pages are free to drop; dirty ones are
			// written back through the pager — asynchronously, batched
			// per object, when the round runs the writeback pipeline.
			// Dirty pages past EOF (zero-filled mappings beyond the
			// file) have nowhere to go and would poison their run, so
			// they stay on the synchronous path, which fails and
			// reactivates just that page.
			if pg.Dirty.Load() {
				if vnAsync && idx < o.vnode.NumPages() {
					pg.Busy.Store(true)
					s.mach.Mem.Dequeue(pg)
					if vnWb == nil {
						vnWb = make(map[*uobject][]*phys.Page)
					}
					if _, ok := vnWb[o]; !ok {
						vnWbOrder = append(vnWbOrder, o)
					}
					vnWb[o] = append(vnWb[o], pg)
					vnPages++
					held.keep(owner)
					return true
				}
				if err := o.ops.put(o, pg); err != nil {
					s.mach.Mem.Activate(pg)
					release()
					return true
				}
			}
			delete(o.pages, idx)
			s.mach.Mem.Dequeue(pg)
			s.mach.Mem.Free(pg)
			freed++
			release()
		default:
			// Ownerless (orphaned loan) or foreign page: skip.
			release()
		}
		return true
	})

	// Vnode writeback flights leave first: each object's lock — and
	// the duty to detach and free its pages — is handed to its
	// flight's last completion, so the object is removed from `held`
	// here (the anon cluster below hands over whatever remains).
	for _, o := range vnWbOrder {
		delete(held, o)
		submitted += s.submitVnodeFlight(o, vnWb[o])
	}

	if len(cluster) > 0 {
		asyncN := 0
		if async {
			asyncN = s.clusterPageoutAsync(cluster, held)
		}
		if asyncN > 0 {
			// The cluster, its held owners, and the duty to free the
			// pages all travel with the in-flight write; scan on with
			// a fresh owner set.
			submitted += asyncN
			held = make(ownerSet)
		} else {
			n, err := s.clusterPageout(cluster)
			freed += n
			if err != nil {
				// Could not clean (e.g. swap exhausted): put the
				// unwritten pages back on the queues and stop trying.
				for _, pg := range cluster {
					if pg.Busy.Load() {
						pg.Busy.Store(false)
						s.mach.Mem.Activate(pg)
					}
				}
				held.releaseAll()
				return freed, submitted, false
			}
		}
	}
	held.releaseAll()
	return freed, submitted, true
}

// clusterPageoutAsync submits the collected dirty cluster as an
// asynchronous write and returns how many pages are now in flight (0
// means the caller must fall back to the synchronous path: clustering
// disabled, a single page, or swap too fragmented for a contiguous run).
// On submission, ownership of `held` — every owner lock this pass
// acquired — transfers to the completion callback, which detaches and
// frees the pages, releases the owners, and wakes blocked allocators
// (see asyncPageoutDone). The submission blocks only while the target
// device's in-flight window is full, which is the backpressure that
// stops the scan from running arbitrarily far ahead of the disk.
func (s *System) clusterPageoutAsync(cluster []*phys.Page, held ownerSet) int {
	if s.cfg.DisableClustering || len(cluster) < 2 {
		return 0
	}
	start, err := s.mach.Swap.AllocContig(len(cluster))
	if err != nil {
		return 0 // fragmented: the sync path falls back to singles
	}
	bufs := make([][]byte, len(cluster))
	for i, pg := range cluster {
		s.reassignSlot(pg, start+int64(i))
		bufs[i] = pg.Data
	}
	pages := append([]*phys.Page(nil), cluster...)
	s.mach.Stats.Inc(sim.CtrPdAsyncClusters)
	s.mach.Stats.Add(sim.CtrPdAsyncPages, int64(len(pages)))
	s.pd.addInFlight()
	if err := s.mach.Swap.WriteClusterAsync(start, bufs, func(werr error) {
		s.asyncPageoutDone(pages, held, werr)
	}); err != nil {
		// Unreachable for an AllocContig run (it never spans a device),
		// but keep the bookkeeping honest: treat it as a failed write.
		s.asyncPageoutDone(pages, held, err)
	}
	return len(pages)
}

// asyncPageoutDone is the completion callback for an asynchronous
// cluster write. It runs on a swap I/O goroutine holding the cluster's
// owner locks (handed over at submission) and nothing else; per the lock
// order it may only touch page state, page queues, the swap allocator
// and the daemon's condvar. On success the now-clean pages are detached
// and freed; on failure they return to the active queue still dirty,
// their freshly assigned slots keeping whatever garbage the failed write
// left (harmless: a dirty page is rewritten before its slot is trusted).
//
//uvm:completion
func (s *System) asyncPageoutDone(pages []*phys.Page, owners ownerSet, err error) {
	freed := 0
	if err != nil {
		s.mach.Stats.Inc(sim.CtrPdAsyncErrors)
		for _, pg := range pages {
			if pg.Busy.Load() {
				pg.Busy.Store(false)
				s.mach.Mem.Activate(pg)
			}
		}
	} else {
		for _, pg := range pages {
			s.finishPageout(pg)
		}
		freed = len(pages)
		s.mach.Stats.Inc(sim.CtrPdClusters)
		s.mach.Stats.Add(sim.CtrPageOuts, int64(freed))
		s.mach.Stats.Add(sim.CtrPdFreed, int64(freed))
	}
	owners.releaseAll()
	s.pd.asyncDone(freed)
}

// clusterPageout writes the collected dirty anonymous pages out. With
// clustering enabled, every page's swap location is (re)assigned into one
// contiguous run and the whole cluster leaves in one I/O operation; with
// the ablation flag set, each page goes to its own slot with its own I/O —
// which is precisely BSD VM's behaviour (Figure 5's two curves). The
// caller holds every cluster page's owner lock.
func (s *System) clusterPageout(cluster []*phys.Page) (int, error) {
	if s.cfg.DisableClustering || len(cluster) == 1 {
		return s.pageoutSingles(cluster)
	}
	start, err := s.mach.Swap.AllocContig(len(cluster))
	if err != nil {
		// Swap too fragmented for a contiguous run: fall back.
		return s.pageoutSingles(cluster)
	}
	bufs := make([][]byte, len(cluster))
	for i, pg := range cluster {
		s.reassignSlot(pg, start+int64(i))
		bufs[i] = pg.Data
	}
	if err := s.mach.Swap.WriteCluster(start, bufs); err != nil {
		return 0, err
	}
	for _, pg := range cluster {
		s.finishPageout(pg)
	}
	s.mach.Stats.Inc(sim.CtrPdClusters)
	s.mach.Stats.Add(sim.CtrPageOuts, int64(len(cluster)))
	return len(cluster), nil
}

// pageoutSingles is the unclustered path: one slot, one I/O, per page.
func (s *System) pageoutSingles(cluster []*phys.Page) (int, error) {
	done := 0
	for _, pg := range cluster {
		slot := s.currentSlot(pg)
		if slot == swap.NoSlot {
			var err error
			slot, err = s.mach.Swap.Alloc()
			if err != nil {
				return done, err
			}
			s.setSlot(pg, slot)
		}
		if err := s.mach.Swap.WriteSlot(slot, pg.Data); err != nil {
			return done, err
		}
		s.finishPageout(pg)
		s.ctrPageOuts.Inc()
		done++
	}
	return done, nil
}

func (s *System) currentSlot(pg *phys.Page) int64 {
	switch owner := pg.Owner().(type) {
	case *anon:
		return owner.swslot
	case *uobject:
		if slot, ok := owner.aobjSlots[param.OffToPage(pg.Off())]; ok {
			return slot
		}
	}
	return swap.NoSlot
}

func (s *System) setSlot(pg *phys.Page, slot int64) {
	switch owner := pg.Owner().(type) {
	case *anon:
		owner.swslot = slot
	case *uobject:
		owner.aobjSlots[param.OffToPage(pg.Off())] = slot
	}
}

// reassignSlot frees a page's old swap location (if any) and assigns the
// new one — the "dynamic reassignment of swap location at page-level
// granularity" of §5.3/§6.
func (s *System) reassignSlot(pg *phys.Page, slot int64) {
	if old := s.currentSlot(pg); old != swap.NoSlot {
		s.mach.Swap.Free(old)
		s.mach.Stats.Inc(sim.CtrPdReassigned)
	}
	s.setSlot(pg, slot)
}

// vnFlight is one object's in-flight reclaim writeback: its dirty vnode
// pages, split into contiguous-index runs each submitted as one
// asynchronous cluster write. The flight owns the object's mutex (handed
// over by the scan, exactly like anon cluster pageout owners) until its
// LAST run completes: that completion detaches and frees the pages of
// every successful run, re-activates the pages of failed runs (still
// dirty), releases the object, and reports to the daemon.
type vnFlight struct {
	s *System
	o *uobject

	//uvm:lock flight
	mu      sync.Mutex
	pending int
	freed   []*phys.Page // pages of completed, successful runs
	failed  []*phys.Page // pages of failed runs
}

// submitVnodeFlight submits the reclaim writeback of o's collected dirty
// pages and returns how many pages are now in flight. Caller has handed
// o's lock to the flight; every page is Busy and dequeued.
func (s *System) submitVnodeFlight(o *uobject, pages []*phys.Page) int {
	sort.Slice(pages, func(i, j int) bool { return pages[i].Off() < pages[j].Off() })
	items := make([]wbItem, len(pages))
	for i, pg := range pages {
		items[i] = wbItem{idx: param.OffToPage(pg.Off()), pg: pg}
	}
	runs := wbClusters(items, s.wbClusterMax())
	fl := &vnFlight{s: s, o: o, pending: len(runs)}
	s.pd.addInFlight()
	for _, run := range runs {
		runPages := make([]*phys.Page, len(run))
		bufs := make([][]byte, len(run))
		for i, it := range run {
			runPages[i] = it.pg
			bufs[i] = it.pg.Data
		}
		s.ctrObjWbClusters.Inc()
		s.ctrObjWbPages.Add(int64(len(run)))
		if err := o.vnode.WriteClusterAsync(run[0].idx, bufs,
			func(err error) { fl.runDone(runPages, err) }); err != nil {
			// Unreachable for in-range pages, but keep the bookkeeping
			// honest: treat it as a failed write.
			fl.runDone(runPages, err)
		}
	}
	return len(pages)
}

// runDone is the completion of one flight run; the last one finishes the
// whole flight. It runs on a vfs I/O goroutine holding the flight's
// object lock (handed over at submission) — which is what makes the
// o.pages mutation in finishPageout safe — plus the flight's own mutex
// to serialise sibling runs' completions.
//
//uvm:completion
func (fl *vnFlight) runDone(pages []*phys.Page, err error) {
	s := fl.s
	fl.mu.Lock()
	if err != nil {
		s.mach.Stats.Inc(sim.CtrObjWbErrors)
		fl.failed = append(fl.failed, pages...)
	} else {
		fl.freed = append(fl.freed, pages...)
	}
	fl.pending--
	last := fl.pending == 0
	if !last {
		fl.mu.Unlock()
		return
	}
	for _, pg := range fl.freed {
		s.finishPageout(pg)
	}
	for _, pg := range fl.failed {
		pg.Busy.Store(false)
		s.mach.Mem.Activate(pg) // still dirty: a later round retries
	}
	freed := len(fl.freed)
	fl.mu.Unlock()
	s.mach.Stats.Add(sim.CtrPageOuts, int64(freed))
	s.mach.Stats.Add(sim.CtrPdFreed, int64(freed))
	releaseOwner(fl.o)
	s.pd.asyncDone(freed)
}

// finishPageout detaches the now-clean page from its owner and frees it.
func (s *System) finishPageout(pg *phys.Page) {
	pg.Dirty.Store(false)
	pg.Busy.Store(false)
	switch owner := pg.Owner().(type) {
	case *anon:
		owner.page = nil
	case *uobject:
		delete(owner.pages, param.OffToPage(pg.Off()))
	}
	s.mach.Mem.Dequeue(pg)
	s.mach.Mem.Free(pg)
}
