// Package phys models physical memory: the vm_page array, the free list,
// and the active/inactive page queues that the pagedaemons of both VM
// systems scan.
//
// Unlike a pure counter model, every frame carries a real 4 KB data
// buffer. Copy-on-write, page loanout, swap round-trips and file I/O are
// all verified against actual bytes by the test suites of the higher
// layers.
//
// Frame data is carved on first allocation, not at boot: NewMem makes
// only the Page headers, and the first Alloc of a never-used frame gives
// its whole chunk (chunkFrames frames of one home shard) one host
// allocation, kept from then on. Reuse is hot-first: Free pushes a frame
// onto the head of its shard's free list, so Alloc hands back the most
// recently freed frame, while never-used frames wait at the tail in frame
// order. Chunks are therefore carved in order and only as deep as the
// machine's peak use, so the host footprint follows the pages a run
// touches rather than its RAM size. None of this is simulated: the
// allocation and zeroing costs are charged exactly as before.
//
// Concurrency: the queues are sharded — each frame has a home shard
// (by frame number) holding its free/active/inactive list membership
// under a per-shard mutex, so page allocation and LRU queue traffic from
// independent faulting goroutines does not serialise on one lock. A
// global monotonic sequence number is stamped on every queue insertion,
// and the pagedaemon entry points (ScanInactive, RefillInactive) merge
// the shards in sequence order — the observable LRU order is therefore
// identical to a single global queue, which keeps single-threaded
// simulations deterministic and bit-for-bit comparable across runs.
//
// Allocation works directly on the sharded free lists — one global
// pool. Alloc rotates its starting shard so concurrent allocators
// rarely meet on one lock, and falls through to the next shard when a
// free list is empty; Free returns a frame to its home shard. The
// allocation path counts its shard-lock acquisitions, and how many had
// to wait, in the phys.alloc.* stats.
//
// The free-page count is a lock-free atomic maintained by the
// allocation paths, so watermark checks never touch the shard locks.
// SetLowWater registers a wakeup callback fired from allocation
// whenever the count drops below the low-water mark; this is how the
// asynchronous pagedaemon is woken ahead of actual exhaustion.
//
// Page state bits (Dirty, Referenced, Busy, WireCount, LoanCount) are
// atomics: they are read lock-free by queue scans while being written
// under the owning VM structure's lock. Page *identity* (Owner, Off) is
// guarded by a small per-page mutex so the pagedaemon can safely chase a
// page's owner while loan-break and teardown paths re-home or orphan the
// frame.
package phys

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"uvm/internal/param"
	"uvm/internal/sim"
)

// ErrNoMemory is returned by Alloc when the free list is empty. Callers
// (the fault handlers) react by waking their pagedaemon and retrying.
var ErrNoMemory = errors.New("phys: out of physical memory")

// QueueKind identifies which paging queue a page is on.
type QueueKind uint8

const (
	QueueNone QueueKind = iota
	QueueFree
	QueueActive
	QueueInactive
	QueueWired // not a real queue: wired pages are off all queues
)

// numShards is the page-queue shard count. A small power of two: enough
// to spread queue traffic from concurrently faulting goroutines, few
// enough that merge scans stay cheap.
const numShards = 16

// chunkFrames is how many frames one carve gives data to: the frames of
// one home shard at consecutive shard-local positions. Keeping a chunk
// inside one shard means carving only ever writes frames guarded by the
// shard lock the allocator already holds.
const chunkFrames = 16

// Page is one physical page frame (a vm_page structure).
type Page struct {
	PA param.PAddr
	// Data is param.PageSize bytes from the frame's first allocation on;
	// nil before it (see carveLocked).
	Data []byte

	// Identity: which higher-level entity owns this frame. Exactly one of
	// these is meaningful for an allocated page; both are zero for a free
	// page. The concrete types belong to the VM system that allocated the
	// page (a memory object or an anon). Guarded by mu, because loan
	// orphaning and loan-break change a page's owner while other paths
	// (the pagedaemon, loan teardown) are inspecting it.
	//uvm:lock pageident
	mu    sync.Mutex
	owner any
	off   param.PageOff

	// State bits maintained by the VM systems and the pmap layer.
	// Atomics: written under the owning structure's lock, read lock-free
	// by queue scans and assertions.
	Dirty      atomic.Bool
	Referenced atomic.Bool
	Busy       atomic.Bool // page is being paged in/out
	WireCount  atomic.Int32
	LoanCount  atomic.Int32 // UVM page loanout: >0 means read-only shared loan

	home       uint8  // queue shard this frame always lives in
	seq        uint64 // global LRU stamp of the last queue insertion
	queue      QueueKind
	prev, next *Page
}

// Owner returns the structure that currently owns this frame (nil for a
// free or orphaned frame).
func (p *Page) Owner() any {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.owner
}

// Off returns the page-aligned offset of this frame within its owner.
func (p *Page) Off() param.PageOff {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.off
}

// SetOwner re-homes the frame to a new owner (or orphans it with nil).
func (p *Page) SetOwner(owner any, off param.PageOff) {
	p.mu.Lock()
	p.owner = owner
	p.off = off
	p.mu.Unlock()
}

// WithIdentity runs fn with the page identity lock held, passing the
// current owner. fn may call SetOwnerLocked-style updates via the
// returned owner reference only; it must not take other page locks.
// This is the primitive behind race-free loan teardown: "drop my loan
// and free the frame if the owner has also gone" must be one atomic
// decision.
func (p *Page) WithIdentity(fn func(owner any)) {
	p.mu.Lock()
	fn(p.owner)
	p.mu.Unlock()
}

// Orphan clears the owner. It must only be called from within a
// WithIdentity callback (which holds the identity lock); the borrowers
// of a loaned frame keep the data alive until the last loan drops.
func (p *Page) Orphan() { p.owner = nil }

// Wired reports whether the page is wired (must stay resident).
func (p *Page) Wired() bool { return p.WireCount.Load() > 0 }

// Loaned reports whether the page is currently loaned out.
func (p *Page) Loaned() bool { return p.LoanCount.Load() > 0 }

// Queue returns the queue the page is currently on.
func (p *Page) Queue() QueueKind { return p.queue }

// String renders the page's identity and state for debug output.
func (p *Page) String() string {
	return fmt.Sprintf("page(pa=%#x owner=%T off=%#x q=%d wire=%d loan=%d dirty=%v)",
		p.PA, p.Owner(), p.Off(), p.queue, p.WireCount.Load(), p.LoanCount.Load(), p.Dirty.Load())
}

// pageList is an intrusive doubly-linked list of pages.
type pageList struct {
	head, tail *Page
	n          int
}

func (l *pageList) pushTail(p *Page) {
	p.prev, p.next = l.tail, nil
	if l.tail != nil {
		l.tail.next = p
	} else {
		l.head = p
	}
	l.tail = p
	l.n++
}

func (l *pageList) pushHead(p *Page) {
	p.prev, p.next = nil, l.head
	if l.head != nil {
		l.head.prev = p
	} else {
		l.tail = p
	}
	l.head = p
	l.n++
}

func (l *pageList) remove(p *Page) {
	if p.prev != nil {
		p.prev.next = p.next
	} else {
		l.head = p.next
	}
	if p.next != nil {
		p.next.prev = p.prev
	} else {
		l.tail = p.prev
	}
	p.prev, p.next = nil, nil
	l.n--
}

func (l *pageList) popHead() *Page {
	p := l.head
	if p != nil {
		l.remove(p)
	}
	return p
}

// memShard is one slice of the page queues: every frame belongs to
// exactly one shard, and all of that frame's queue membership is
// guarded by the shard's mutex.
type memShard struct {
	//uvm:lock pageq
	mu       sync.Mutex
	free     pageList
	active   pageList
	inactive pageList
}

// Mem is the physical memory of the simulated machine.
type Mem struct {
	clock *sim.Clock
	costs *sim.Costs
	stats *sim.Stats

	total  int
	frames []Page
	shards [numShards]memShard

	seqCtr      atomic.Uint64 // global LRU stamp source
	allocCursor atomic.Uint64 // round-robin shard hint for Alloc

	freeCnt  atomic.Int64 // lock-free count of free frames
	lowWater atomic.Int64 // free-page threshold that fires lowWake
	lowWake  atomic.Value // func(): pagedaemon doorbell, must not block

	// Cached stat handles for the allocation path (phys.alloc.*) and
	// the per-page zero and copy counters: hot enough that the name
	// lookup per bump would show up.
	ctrAllocAcquires  sim.Counter
	ctrAllocContended sim.Counter
	ctrPagesZeroed    sim.Counter
	ctrPagesCopied    sim.Counter
}

// NewMem boots a machine with npages page frames. Only the Page headers
// are allocated here; frame data is carved on first allocation.
func NewMem(clock *sim.Clock, costs *sim.Costs, stats *sim.Stats, npages int) *Mem {
	if npages <= 0 {
		panic("phys: non-positive memory size")
	}
	m := &Mem{clock: clock, costs: costs, stats: stats, total: npages}
	m.ctrAllocAcquires = stats.Counter(sim.CtrAllocAcquires)
	m.ctrAllocContended = stats.Counter(sim.CtrAllocContended)
	m.ctrPagesZeroed = stats.Counter(sim.CtrPagesZeroed)
	m.ctrPagesCopied = stats.Counter(sim.CtrPagesCopied)
	m.frames = make([]Page, npages)
	for i := range m.frames {
		p := &m.frames[i]
		p.PA = param.PAddr(i) << param.PageShift
		p.home = uint8(i % numShards)
		p.queue = QueueFree
		m.shards[p.home].free.pushTail(p)
	}
	m.freeCnt.Store(int64(npages))
	return m
}

// SetLowWater registers a low-water mark and a wakeup callback: whenever
// an allocation leaves fewer than pages frames free, wake is called from
// Alloc (with no queue locks held). wake must be cheap and non-blocking —
// the pagedaemon's doorbell is a non-blocking channel send. Passing 0
// disables the watermark.
func (m *Mem) SetLowWater(pages int, wake func()) {
	m.lowWater.Store(int64(pages))
	if wake != nil {
		m.lowWake.Store(wake)
	}
}

func (m *Mem) shardOf(p *Page) *memShard { return &m.shards[p.home] }

// TotalPages returns the amount of physical memory in pages.
func (m *Mem) TotalPages() int { return m.total }

// FreePages returns the current number of free frames. It reads the
// lock-free counter, so watermark polls never contend with allocators.
func (m *Mem) FreePages() int { return int(m.freeCnt.Load()) }

// ActivePages and InactivePages return the queue depths.
func (m *Mem) ActivePages() int {
	n := 0
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		n += sh.active.n
		sh.mu.Unlock()
	}
	return n
}

// InactivePages counts the pages currently on the inactive queues.
func (m *Mem) InactivePages() int {
	n := 0
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		n += sh.inactive.n
		sh.mu.Unlock()
	}
	return n
}

// BusyPages sweeps every frame and returns the ones with Busy set. With
// the system quiescent (no faults running, pipelines drained, Shutdown
// complete) the answer must be empty: a Busy page at that point is a
// leaked claim from an error path that forgot to release it. The
// fault-injection suite and the experiment matrix assert exactly that at
// end of run.
func (m *Mem) BusyPages() []*Page {
	var busy []*Page
	for i := range m.frames {
		if m.frames[i].Busy.Load() {
			busy = append(busy, &m.frames[i])
		}
	}
	return busy
}

// Alloc takes a free frame. If zero is set the frame is zero-filled
// (and the zeroing cost charged); otherwise its previous contents are
// undefined, exactly like a real free-list page. Allocation rotates
// across the queue shards so concurrent allocators rarely meet on one
// lock, and a shard whose free list is empty falls through to the next.
func (m *Mem) Alloc(owner any, off param.PageOff, zero bool) (*Page, error) {
	start := int(m.allocCursor.Add(1) - 1)
	var p *Page
	for i := 0; i < numShards; i++ {
		sh := &m.shards[(start+i)%numShards]
		m.lockShardAlloc(sh)
		p = sh.free.popHead()
		if p != nil {
			p.queue = QueueNone
			if p.Data == nil {
				m.carveLocked(p)
			}
			sh.mu.Unlock()
			break
		}
		sh.mu.Unlock()
	}
	if p == nil {
		return nil, ErrNoMemory
	}
	m.finishAlloc(p, owner, off, zero)
	return p, nil
}

// lockShardAlloc acquires a queue shard on the allocation path, counting
// the acquisition — and whether it had to wait — in the phys.alloc.*
// stats. (The free path's detach acquisition is queue bookkeeping, not
// allocator traffic, and is deliberately not counted.)
func (m *Mem) lockShardAlloc(sh *memShard) {
	if !sh.mu.TryLock() {
		m.ctrAllocContended.Inc()
		sh.mu.Lock()
	}
	m.ctrAllocAcquires.Inc()
}

// carveLocked gives data to the never-used frame p and to the rest of
// its chunk: the chunkFrames frames of p's home shard that share p's
// chunk get one host allocation between them. A chunk is carved whole,
// so a frame without data means its whole chunk has none. Caller holds
// p's home shard lock, which guards every frame of the chunk until its
// own first allocation.
func (m *Mem) carveLocked(p *Page) {
	home := int(p.home)
	first := int(p.PA>>param.PageShift) / numShards / chunkFrames * chunkFrames
	inShard := (m.total - home + numShards - 1) / numShards
	n := min(chunkFrames, inShard-first)
	buf := make([]byte, n*param.PageSize)
	for j := 0; j < n; j++ {
		f := &m.frames[(first+j)*numShards+home]
		f.Data = buf[j*param.PageSize : (j+1)*param.PageSize : (j+1)*param.PageSize]
	}
}

// finishAlloc applies the post-allocation protocol to a frame just
// taken off a free list: maintain the lock-free free counter and fire
// the low-water doorbell, charge the cost, stamp the owner, and reset
// the state bits.
func (m *Mem) finishAlloc(p *Page, owner any, off param.PageOff, zero bool) {
	if free := m.freeCnt.Add(-1); free < m.lowWater.Load() {
		if wake, ok := m.lowWake.Load().(func()); ok {
			wake()
		}
	}
	m.clock.Advance(m.costs.PageAlloc)
	p.SetOwner(owner, off)
	p.Dirty.Store(false)
	p.Referenced.Store(false)
	p.Busy.Store(false)
	p.WireCount.Store(0)
	p.LoanCount.Store(0)
	if zero {
		m.Zero(p)
	}
}

// Free returns a frame to the head of its home shard's free list, so the
// next Alloc from that shard reuses it while its data is still in cache.
// The caller must have removed all mappings; queue membership is cleared
// here.
func (m *Mem) Free(p *Page) {
	if p.WireCount.Load() > 0 {
		panic("phys: freeing wired page " + p.String())
	}
	if p.LoanCount.Load() > 0 {
		panic("phys: freeing loaned page " + p.String())
	}
	m.clock.Advance(m.costs.PageFree)
	p.SetOwner(nil, 0)
	p.Dirty.Store(false)
	sh := m.shardOf(p)
	sh.mu.Lock()
	sh.detachLocked(p)
	p.queue = QueueFree
	sh.free.pushHead(p)
	sh.mu.Unlock()
	m.freeCnt.Add(1)
}

// Zero clears a frame's data, charging the zeroing cost.
func (m *Mem) Zero(p *Page) {
	m.clock.Advance(m.costs.PageZero)
	m.ctrPagesZeroed.Inc()
	clear(p.Data)
}

// CopyData copies src's data into dst, charging the 4 KB copy cost.
func (m *Mem) CopyData(dst, src *Page) {
	m.clock.Advance(m.costs.PageCopy)
	m.ctrPagesCopied.Inc()
	copy(dst.Data, src.Data)
}

// Activate puts the page on the active queue (most recently used end).
func (m *Mem) Activate(p *Page) {
	seq := m.seqCtr.Add(1)
	sh := m.shardOf(p)
	sh.mu.Lock()
	sh.detachLocked(p)
	p.queue = QueueActive
	p.seq = seq
	sh.active.pushTail(p)
	sh.mu.Unlock()
}

// ActivateIfInactive gives a page a second chance — but only if it is
// still on the inactive queue. The pagedaemon works from a lock-free
// snapshot; by the time it decides a page deserves reactivation the
// frame may have been freed (or reallocated and even wired) by its
// owner, and blindly activating it would pull a free frame off the free
// list forever. Reports whether the page was moved.
func (m *Mem) ActivateIfInactive(p *Page) bool {
	seq := m.seqCtr.Add(1)
	sh := m.shardOf(p)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if p.queue != QueueInactive {
		return false
	}
	sh.inactive.remove(p)
	p.queue = QueueActive
	p.seq = seq
	sh.active.pushTail(p)
	return true
}

// Deactivate moves the page to the inactive queue, making it a pageout
// candidate.
func (m *Mem) Deactivate(p *Page) {
	seq := m.seqCtr.Add(1)
	sh := m.shardOf(p)
	sh.mu.Lock()
	sh.detachLocked(p)
	p.queue = QueueInactive
	p.seq = seq
	sh.inactive.pushTail(p)
	sh.mu.Unlock()
}

// Dequeue removes the page from whatever paging queue it is on (used when
// wiring a page or starting pageout on it).
func (m *Mem) Dequeue(p *Page) {
	sh := m.shardOf(p)
	sh.mu.Lock()
	sh.detachLocked(p)
	sh.mu.Unlock()
}

func (sh *memShard) detachLocked(p *Page) {
	switch p.queue {
	case QueueFree:
		sh.free.remove(p)
	case QueueActive:
		sh.active.remove(p)
	case QueueInactive:
		sh.inactive.remove(p)
	}
	p.queue = QueueNone
}

// ScanInactive calls fn on up to max pages in global LRU order from the
// inactive queue. fn runs without any queue lock held so it may call back
// into Mem; the scan snapshots candidates first, skipping busy, wired and
// loaned pages. This is the pagedaemon's entry point. The shards are
// merged by sequence stamp, so the visit order matches what a single
// global inactive queue would produce.
func (m *Mem) ScanInactive(max int, fn func(*Page) bool) {
	// The LRU stamp is copied out while the shard lock is held: p.seq is
	// re-stamped (under other shard locks) whenever a page moves queues,
	// so the sort below must not touch the live field.
	type candidate struct {
		p   *Page
		seq uint64
	}
	var cand []candidate
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		cnt := 0
		for p := sh.inactive.head; p != nil && cnt < max; p = p.next {
			if p.Busy.Load() || p.WireCount.Load() > 0 || p.LoanCount.Load() > 0 {
				continue
			}
			cand = append(cand, candidate{p, p.seq})
			cnt++
		}
		sh.mu.Unlock()
	}
	// Merge to global LRU order and keep the first max. Stamps are
	// unique, so any sort gives the one order a single queue would. (The
	// shards' runs are concatenated, not interleaved, so an insertion
	// sort here is quadratic in the candidate count.)
	slices.SortFunc(cand, func(a, b candidate) int { return cmp.Compare(a.seq, b.seq) })
	if len(cand) > max {
		cand = cand[:max]
	}
	for _, c := range cand {
		if !fn(c.p) {
			return
		}
	}
}

// RefillInactive moves up to n pages from the global LRU head of the
// active queue to the inactive queue (the clock-hand "page aging" step
// both pagedaemons perform when the inactive queue runs short).
// Referenced pages get a second chance: their reference bit is cleared
// and they return to the active tail. All shards are locked for the
// duration so the merge sees a consistent ordering.
func (m *Mem) RefillInactive(n int) int {
	for i := range m.shards {
		m.shards[i].mu.Lock()
	}
	defer func() {
		for i := range m.shards {
			m.shards[i].mu.Unlock()
		}
	}()

	limit := 0
	for i := range m.shards {
		limit += m.shards[i].active.n
	}
	moved := 0
	scanned := 0
	for moved < n && scanned < limit {
		// Pop the globally least recently used active page.
		var sh *memShard
		for i := range m.shards {
			c := &m.shards[i]
			if c.active.head == nil {
				continue
			}
			if sh == nil || c.active.head.seq < sh.active.head.seq {
				sh = c
			}
		}
		if sh == nil {
			break
		}
		p := sh.active.popHead()
		scanned++
		if p.WireCount.Load() > 0 {
			p.queue = QueueNone
			continue
		}
		if p.Referenced.Load() {
			p.Referenced.Store(false)
			p.queue = QueueActive
			p.seq = m.seqCtr.Add(1)
			sh.active.pushTail(p)
			continue
		}
		p.queue = QueueInactive
		p.seq = m.seqCtr.Add(1)
		sh.inactive.pushTail(p)
		moved++
	}
	return moved
}

// FreeListLen counts the free lists directly (debug helper); at rest it
// equals FreePages.
func (m *Mem) FreeListLen() int {
	n := 0
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		n += sh.free.n
		sh.mu.Unlock()
	}
	return n
}
