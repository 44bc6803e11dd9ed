// Package pmap is the machine-dependent layer of the simulated kernel: a
// software MMU. It implements the Mach-style pmap API that both BSD VM and
// UVM program — the paper stresses (§2, §10) that UVM deliberately reuses
// BSD VM's pmap layer unchanged, so in this reproduction there is exactly
// one pmap implementation and both machine-independent VM systems drive
// it.
//
// A pmap holds the translations for one address space. The MMU keeps a
// reverse map (pv list) from each physical page to every translation that
// maps it, which is what makes pmap_page_protect — write-protecting or
// removing all mappings of a page for copy-on-write and pageout — possible.
//
// # The frame-indexed reverse map
//
// The pv table is the 4.4BSD i386 pmap's pv_table: one pvHead per
// physical frame, indexed by frame number and sized from the machine's
// RAM at boot. A head stores its frame's first mapping inline and the
// rest in an overflow slice whose backing array is kept and reused, so
// entering and removing mappings allocates nothing once a frame has seen
// its widest sharing.
//
// The table is shared by every address space on the machine, so a
// single mutex around it would serialise all faults system-wide — the
// exact serialisation point the fine-grained VM locking was built to
// avoid. Its locking is therefore sharded: pvShards bucket mutexes, the
// heads of every frame whose number hashes to a bucket guarded by that
// bucket's mutex. Page-level operations (Enter, Remove, PageProtect, pv
// walks) lock only the one bucket their frame hashes to, so faults in
// different address spaces — which overwhelmingly touch different frames
// — proceed without contending.
//
// Locking: a pmap's own mutex (p.mu, guarding its page table) nests
// ABOVE pv bucket locks — Enter/Remove update the page table and the
// reverse map under p.mu so the two stay mutually inverse at every
// instant. At most one bucket is ever held at a time: batch operations
// edit heads in the batch's own order and hold a bucket across each run
// of consecutive edits that hash to it, releasing it before taking the
// next. Bucket locks are leaves: nothing is acquired under them.
// PageProtect snapshots a page's pv list under its bucket and releases
// the bucket before touching any pmap, so it never holds a bucket and a
// pmap mutex together in the reverse order.
//
// Bucket lock traffic is counted in the pmap.pv.* stats (acquisitions
// and contended acquisitions); experiments.Scaling reports the ratio as
// fault-path pv contention.
//
// The simulated processor is i386-like: each 4 MB-aligned region of a
// pmap's virtual address space that contains at least one mapping needs a
// page-table page, which is wired kernel memory. Whose bookkeeping records
// that wired memory is one of the Table 1 differences between the two VM
// systems, so the pmap reports page-table page allocation through a hook.
package pmap

import (
	"fmt"
	"slices"
	"sync"

	"uvm/internal/param"
	"uvm/internal/phys"
	"uvm/internal/sim"
)

// ptRegionShift selects the i386 page-table granularity: one page-table
// page maps 4 MB (1024 PTEs of 4 KB).
const ptRegionShift = 22

// pvShards is the number of reverse-map buckets. 64 comfortably exceeds
// any plausible host core count, so two concurrent faults on different
// frames almost never share a bucket; being a power of two keeps the
// frame-number hash a mask.
const pvShards = 64

// PTE is one translation: virtual page -> physical frame with a hardware
// protection. Wired marks translations that must not be torn down by
// pageout (the pmap-level wired attribute).
type PTE struct {
	Page  *phys.Page
	Prot  param.Prot
	Wired bool
}

// BatchEntry is one translation for Pmap.EnterBatch.
type BatchEntry struct {
	VA    param.VAddr
	Page  *phys.Page
	Prot  param.Prot
	Wired bool
}

type pv struct {
	pm *Pmap
	va param.VAddr
}

// pvHead is one frame's pv list: the first mapping inline, the rest in
// more. An empty head has first.pm == nil and len(more) == 0; more keeps
// its backing array for reuse, with every slot past len cleared so a
// torn-down pmap is not kept reachable. Guarded by the frame's bucket.
type pvHead struct {
	first pv
	more  []pv
}

// len is the number of mappings of the frame.
func (h *pvHead) len() int {
	if h.first.pm == nil {
		return 0
	}
	return 1 + len(h.more)
}

func (h *pvHead) add(pm *Pmap, va param.VAddr) {
	if h.first.pm == nil {
		h.first = pv{pm, va}
		return
	}
	h.more = append(h.more, pv{pm, va})
}

// remove drops the (pm, va) entry, moving the last entry into its place
// — the list order a swap-with-last removal from one slice gives, which
// keeps PageProtect's walk order, and so the simulation, deterministic.
func (h *pvHead) remove(pm *Pmap, va param.VAddr) {
	n := len(h.more)
	if h.first.pm == pm && h.first.va == va {
		if n == 0 {
			h.first = pv{}
			return
		}
		h.first = h.more[n-1]
	} else {
		i := 0
		for i < n && (h.more[i].pm != pm || h.more[i].va != va) {
			i++
		}
		if i == n {
			return
		}
		h.more[i] = h.more[n-1]
	}
	h.more[n-1] = pv{}
	h.more = h.more[:n-1]
}

// appendTo appends the frame's mappings to dst in list order.
func (h *pvHead) appendTo(dst []pv) []pv {
	if h.first.pm == nil {
		return dst
	}
	return append(append(dst, h.first), h.more...)
}

// pvBucket is one lock shard of the reverse map. It is padded to a
// cache line so neighbouring buckets do not false-share.
type pvBucket struct {
	//uvm:lock pvbucket
	mu sync.Mutex
	_  [56]byte
}

// MMU is the machine: it owns the frame-indexed reverse (pv) table
// shared by all pmaps.
type MMU struct {
	clock *sim.Clock
	costs *sim.Costs
	stats *sim.Stats

	// shards is the number of live buckets (a power of two ≤ pvShards).
	// Set once at boot — before any translation exists — by SetPVShards;
	// 1 degrades the table to the classic single-mutex layout, kept as
	// the measured contrast for BenchmarkPVContention.
	shards  int
	buckets [pvShards]pvBucket
	// heads is the pv table, one head per RAM frame; heads[f] is guarded
	// by buckets[f & (shards-1)].
	heads []pvHead

	// Cached counter cells: the fault path bumps these on every bucket
	// acquisition, so the name lookup is paid once here.
	ctrAcquires     sim.Counter
	ctrContended    sim.Counter
	ctrBatches      sim.Counter
	ctrBatchPages   sim.Counter
	ctrRmBatches    sim.Counter
	ctrRmBatchPages sim.Counter
}

// NewMMU creates the MMU of a machine with ramPages physical frames.
func NewMMU(clock *sim.Clock, costs *sim.Costs, stats *sim.Stats, ramPages int) *MMU {
	return &MMU{
		clock:           clock,
		costs:           costs,
		stats:           stats,
		shards:          pvShards,
		heads:           make([]pvHead, ramPages),
		ctrAcquires:     stats.Counter(sim.CtrPVAcquires),
		ctrContended:    stats.Counter(sim.CtrPVContended),
		ctrBatches:      stats.Counter(sim.CtrPVBatches),
		ctrBatchPages:   stats.Counter(sim.CtrPVBatchPages),
		ctrRmBatches:    stats.Counter(sim.CtrPVBatchRemoves),
		ctrRmBatchPages: stats.Counter(sim.CtrPVBatchRemovePages),
	}
}

// SetPVShards restricts the reverse map to n buckets (rounded down to a
// power of two, clamped to [1, 64]). It exists so benchmarks and
// experiments can compare the sharded table against the single-mutex
// layout (n=1); production boots keep the default. Must be called before
// any translation is entered — it panics if mappings already exist.
func (m *MMU) SetPVShards(n int) {
	for f := range m.heads {
		b := &m.buckets[m.frameBucket(f)]
		b.mu.Lock()
		populated := m.heads[f].len() > 0
		b.mu.Unlock()
		if populated {
			panic("pmap: SetPVShards after mappings exist")
		}
	}
	if n < 1 {
		n = 1
	}
	if n > pvShards {
		n = pvShards
	}
	for n&(n-1) != 0 {
		n &= n - 1 // round down to a power of two
	}
	m.shards = n
}

// frame returns pg's frame number, its index in the pv table.
func frame(pg *phys.Page) int { return int(uint64(pg.PA) >> param.PageShift) }

// frameBucket hashes a frame to its reverse-map bucket: the frame number
// masked by the live shard count, so adjacent frames land in different
// buckets.
func (m *MMU) frameBucket(f int) int { return f & (m.shards - 1) }

func (m *MMU) bucketOf(pg *phys.Page) *pvBucket { return &m.buckets[m.frameBucket(frame(pg))] }

func (m *MMU) headOf(pg *phys.Page) *pvHead { return &m.heads[frame(pg)] }

// lockBucket acquires b counting the acquisition, and whether it had to
// wait, in the pmap.pv.* stats.
func (m *MMU) lockBucket(b *pvBucket) {
	if !b.mu.TryLock() {
		m.ctrContended.Inc()
		b.mu.Lock()
	}
	m.ctrAcquires.Inc()
}

// pvRun applies a sequence of pv edits holding at most one bucket: the
// bucket stays held across a run of consecutive edits that hash to it
// and is swapped only when an edit hashes elsewhere. The zero value
// holds nothing; done releases whatever is held.
type pvRun struct {
	m    *MMU
	held *pvBucket
}

// head locks pg's bucket, if it is not the one already held, and
// returns pg's head.
func (r *pvRun) head(pg *phys.Page) *pvHead {
	if b := r.m.bucketOf(pg); b != r.held {
		r.done()
		r.m.lockBucket(b)
		r.held = b
	}
	return r.m.headOf(pg)
}

func (r *pvRun) done() {
	if r.held != nil {
		r.held.mu.Unlock()
		r.held = nil
	}
}

// Pmap is the translation state for one address space.
type Pmap struct {
	mmu  *MMU
	name string

	//uvm:lock pmap
	mu        sync.Mutex
	pt        map[param.VAddr]PTE
	ptRegions map[param.VAddr]int // 4MB region base -> live PTE count
	wired     int

	// OnPTAlloc/OnPTFree fire when a page-table page is allocated or
	// freed for this pmap. BSD VM points these at kernel-map wiring (which
	// fragments kernel map entries); UVM records the wired state here in
	// the pmap only (paper §3.2).
	OnPTAlloc func()
	OnPTFree  func()
}

// NewPmap creates an empty address-space pmap.
func (m *MMU) NewPmap(name string) *Pmap {
	return &Pmap{
		mmu:       m,
		name:      name,
		pt:        make(map[param.VAddr]PTE),
		ptRegions: make(map[param.VAddr]int),
	}
}

// String names the pmap's address space in panics and test failures.
func (p *Pmap) String() string { return fmt.Sprintf("pmap(%s)", p.name) }

// applyPTLocked updates the page table for one translation — PTE write,
// page-table region refcount, wired accounting — and reports the
// reverse-map delta the caller must apply: the replaced page whose pv
// entry must go (nil if none) and whether pg needs a new pv entry.
// Caller holds p.mu; both Enter and EnterBatch funnel through here so
// their bookkeeping cannot drift apart.
func (p *Pmap) applyPTLocked(va param.VAddr, pg *phys.Page, prot param.Prot, wired bool) (removeOld *phys.Page, add bool) {
	old, had := p.pt[va]
	p.pt[va] = PTE{Page: pg, Prot: prot, Wired: wired}
	if !had {
		p.ptRegionRefLocked(va, +1)
	}
	if had && old.Wired {
		p.wired--
	}
	if wired {
		p.wired++
	}
	if had && old.Page != pg {
		removeOld = old.Page
	}
	return removeOld, !had || old.Page != pg
}

// Enter establishes (or replaces) the translation for va. The page gains a
// pv entry so page-level operations can find this mapping.
func (p *Pmap) Enter(va param.VAddr, pg *phys.Page, prot param.Prot, wired bool) {
	if !param.PageAligned(va) {
		panic("pmap: unaligned Enter")
	}
	p.mmu.clock.Advance(p.mmu.costs.PmapEnter)

	p.mu.Lock()
	r := pvRun{m: p.mmu}
	p.enterLocked(&r, va, pg, prot, wired)
	r.done()
	p.mu.Unlock()
}

// enterLocked applies one translation to the page table and the reverse
// map. Caller holds p.mu; r carries the bucket held between edits.
func (p *Pmap) enterLocked(r *pvRun, va param.VAddr, pg *phys.Page, prot param.Prot, wired bool) {
	removeOld, add := p.applyPTLocked(va, pg, prot, wired)
	if removeOld != nil {
		r.head(removeOld).remove(p, va)
	}
	if add {
		r.head(pg).add(p, va)
	}
}

// EnterBatch establishes every translation in entries, exactly as the
// equivalent sequence of Enter calls would, but takes the pmap mutex once
// for the whole batch and holds each pv bucket across a run of
// consecutive edits that hash to it, instead of locking both per page.
// The batched fault-ahead path uses it to amortise lock traffic across
// the advice window. VAs must be page-aligned; the per-entry PmapEnter
// cost is charged as usual, so a batch costs the same simulated time as
// the loop it replaces.
func (p *Pmap) EnterBatch(entries []BatchEntry) {
	if len(entries) == 0 {
		return
	}
	for _, be := range entries {
		if !param.PageAligned(be.VA) {
			panic("pmap: unaligned EnterBatch")
		}
	}
	p.mmu.clock.ChargeN(len(entries), p.mmu.costs.PmapEnter)
	p.mmu.ctrBatches.Inc()
	p.mmu.ctrBatchPages.Add(int64(len(entries)))

	// The edits land in entry order under p.mu, so the batch is atomic
	// against Remove/PageProtect on this pmap and a remove-then-add pair
	// for one VA lands in sequence.
	p.mu.Lock()
	r := pvRun{m: p.mmu}
	for _, be := range entries {
		p.enterLocked(&r, be.VA, be.Page, be.Prot, be.Wired)
	}
	r.done()
	p.mu.Unlock()
}

// Remove tears down all translations in [start, end).
func (p *Pmap) Remove(start, end param.VAddr) {
	for va := param.Trunc(start); va < end; va += param.PageSize {
		p.removeOne(va)
	}
}

// RemoveBatch tears down every translation in [start, end) exactly as the
// equivalent sequence of Remove calls would, but takes the pmap mutex
// once for the whole window and holds each pv bucket across a run of
// consecutive edits that hash to it — the teardown mirror of
// EnterBatch, used by UVM's two-phase unmap and address-space exit. The
// per-translation PmapRemove cost is charged as usual, so a batch costs
// the same simulated time as the loop it replaces.
func (p *Pmap) RemoveBatch(start, end param.VAddr) {
	start = param.Trunc(start)

	p.mu.Lock()
	r := pvRun{m: p.mmu}
	n := 0
	if span := uint64(end-start) >> param.PageShift; end > start && span < uint64(len(p.pt)) {
		// A window smaller than the page table: walk the VA range
		// directly, in ascending order.
		for va := start; va < end; va += param.PageSize {
			if pte, ok := p.pt[va]; ok {
				p.removeLocked(&r, va, pte)
				n++
			}
		}
	} else {
		// A huge or whole-space window (RemoveAll): scan the table
		// instead of stepping through an astronomically sparse range,
		// and sort so the pv edits land in the same ascending order the
		// Remove loop produces.
		var buf [64]param.VAddr
		vas := buf[:0]
		for va := range p.pt {
			if va >= start && va < end {
				vas = append(vas, va)
			}
		}
		slices.Sort(vas)
		for _, va := range vas {
			p.removeLocked(&r, va, p.pt[va])
		}
		n = len(vas)
	}
	r.done()
	p.mu.Unlock()
	if n == 0 {
		return
	}

	p.mmu.clock.ChargeN(n, p.mmu.costs.PmapRemove)
	p.mmu.ctrRmBatches.Inc()
	p.mmu.ctrRmBatchPages.Add(int64(n))
}

// removeLocked tears down the translation pte of va: page table,
// page-table region refcount, wired accounting and pv entry. Caller holds
// p.mu; r carries the bucket held between edits.
func (p *Pmap) removeLocked(r *pvRun, va param.VAddr, pte PTE) {
	delete(p.pt, va)
	p.ptRegionRefLocked(va, -1)
	if pte.Wired {
		p.wired--
	}
	r.head(pte.Page).remove(p, va)
}

func (p *Pmap) removeOne(va param.VAddr) { p.removeIf(va, nil) }

// removeIf tears down va's translation. With only non-nil the teardown
// happens just when the translation still maps that page: PageProtect
// works from a pv snapshot taken under the bucket lock, and a
// translation replaced after the snapshot must not be collateral damage.
func (p *Pmap) removeIf(va param.VAddr, only *phys.Page) {
	p.mu.Lock()
	pte, ok := p.pt[va]
	if !ok || (only != nil && pte.Page != only) {
		p.mu.Unlock()
		return
	}
	r := pvRun{m: p.mmu}
	p.removeLocked(&r, va, pte)
	r.done()
	p.mu.Unlock()

	p.mmu.clock.Advance(p.mmu.costs.PmapRemove)
}

// Protect narrows the hardware protection of every translation in
// [start, end) to prot. With ProtNone the translations are removed
// (matching pmap_protect semantics on the i386), batched — the pmap
// mutex and each pv bucket taken once for the window.
func (p *Pmap) Protect(start, end param.VAddr, prot param.Prot) {
	if prot == param.ProtNone {
		p.RemoveBatch(start, end)
		return
	}
	for va := param.Trunc(start); va < end; va += param.PageSize {
		p.mu.Lock()
		if pte, ok := p.pt[va]; ok {
			p.mmu.clock.Advance(p.mmu.costs.PmapProtect)
			pte.Prot &= prot
			p.pt[va] = pte
		}
		p.mu.Unlock()
	}
}

// Extract returns the translation for va, if any. It charges the cost of a
// software page-table walk.
func (p *Pmap) Extract(va param.VAddr) (PTE, bool) {
	p.mmu.clock.Advance(p.mmu.costs.PmapExtract)
	p.mu.Lock()
	defer p.mu.Unlock()
	pte, ok := p.pt[param.Trunc(va)]
	return pte, ok
}

// Lookup is Extract without the cost charge, for assertions and tests.
func (p *Pmap) Lookup(va param.VAddr) (PTE, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	pte, ok := p.pt[param.Trunc(va)]
	return pte, ok
}

// AppendUnmapped appends to dst every page-aligned VA of [start, end)
// that has no translation, in ascending order, and returns the extended
// slice. It takes the pmap mutex once for the whole range and, like
// Lookup, charges no simulated cost: the fault-ahead window uses it to
// pick its candidates.
func (p *Pmap) AppendUnmapped(dst []param.VAddr, start, end param.VAddr) []param.VAddr {
	p.mu.Lock()
	defer p.mu.Unlock()
	for va := param.Trunc(start); va < end; va += param.PageSize {
		if _, ok := p.pt[va]; !ok {
			dst = append(dst, va)
		}
	}
	return dst
}

// ChangeWiring flips the pmap-level wired attribute of va's translation.
func (p *Pmap) ChangeWiring(va param.VAddr, wired bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	pte, ok := p.pt[param.Trunc(va)]
	if !ok {
		return
	}
	if pte.Wired != wired {
		if wired {
			p.wired++
		} else {
			p.wired--
		}
		pte.Wired = wired
		p.pt[param.Trunc(va)] = pte
	}
}

// ResidentCount returns the number of valid translations.
func (p *Pmap) ResidentCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.pt)
}

// WiredCount returns the number of wired translations.
func (p *Pmap) WiredCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.wired
}

// PTPages returns the number of page-table pages currently allocated.
func (p *Pmap) PTPages() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.ptRegions)
}

// ptRegionRefLocked adjusts the PTE count of va's 4 MB region, firing the
// allocation/free hooks at the 0<->1 transitions. Caller holds p.mu.
func (p *Pmap) ptRegionRefLocked(va param.VAddr, delta int) {
	region := va >> ptRegionShift << ptRegionShift
	n := p.ptRegions[region] + delta
	switch {
	case n < 0:
		panic("pmap: page-table region refcount underflow")
	case n == 0:
		delete(p.ptRegions, region)
		if p.OnPTFree != nil {
			p.OnPTFree()
		}
	default:
		if p.ptRegions[region] == 0 && p.OnPTAlloc != nil {
			p.OnPTAlloc()
		}
		p.ptRegions[region] = n
	}
}

// RemoveAll tears down every translation (address-space teardown). It is
// a whole-space RemoveBatch: the pmap mutex and each affected pv bucket
// are taken once for the entire space.
func (p *Pmap) RemoveAll() {
	p.RemoveBatch(0, ^param.VAddr(0))
}

// PageProtect narrows the protection of every mapping of pg, in every
// pmap, to prot. ProtNone removes all mappings. This is the pmap primitive
// behind copy-on-write write-protection at fork and behind pageout. Only
// pg's own pv bucket is locked (to snapshot the mapping list), so
// PageProtect calls on pages in different buckets do not contend.
func (m *MMU) PageProtect(pg *phys.Page, prot param.Prot) {
	// The snapshot lives on the stack for up to four mappings, which
	// covers every page short of a wide fork's shared frames.
	var buf [4]pv
	b := m.bucketOf(pg)
	m.lockBucket(b)
	entries := m.headOf(pg).appendTo(buf[:0])
	b.mu.Unlock()

	if prot == param.ProtNone {
		for _, e := range entries {
			e.pm.removeIf(e.va, pg)
		}
		return
	}
	for _, e := range entries {
		e.pm.mu.Lock()
		if pte, ok := e.pm.pt[e.va]; ok && pte.Page == pg {
			m.clock.Advance(m.costs.PmapProtect)
			pte.Prot &= prot
			e.pm.pt[e.va] = pte
		}
		e.pm.mu.Unlock()
	}
}

// PageMappings returns how many translations currently map pg.
func (m *MMU) PageMappings(pg *phys.Page) int {
	b := m.bucketOf(pg)
	b.mu.Lock()
	defer b.mu.Unlock()
	return m.headOf(pg).len()
}

// PageReferenced gathers and clears the simulated reference bit for pg.
// (On real hardware this scans PTE reference bits via the pv list.)
func (m *MMU) PageReferenced(pg *phys.Page) bool {
	return pg.Referenced.Swap(false)
}
