// Package uvm implements UVM, the paper's contribution: a virtual memory
// system with two-level (amap + object) copy-on-write instead of shadow
// object chains, memory objects embedded in their data sources, a
// general-purpose fault handler with resident-page lookahead, single-call
// mapping, two-phase unmap, wiring without map fragmentation, aggressive
// clustered anonymous pageout with swap-slot reassignment, and three
// VM-based data movement mechanisms (page loanout, page transfer, map
// entry passing).
//
// It boots on the same vmapi.Machine substrate as internal/bsdvm — same
// pmap layer, same cost table, same disks — so every measured difference
// between the two packages is a design difference the paper describes.
//
// # Locking
//
// Unlike internal/bsdvm, which serialises every kernel entry behind one
// big lock (a pre-SMP BSD kernel), this package uses fine-grained
// locking so independent processes fault, loan, transfer and page out
// concurrently:
//
//   - each vmMap carries a sync.RWMutex: mutating operations (mmap,
//     munmap, fork, mprotect, wiring, map entry passing) take it
//     exclusively; the fault path takes it shared, upgrading to
//     exclusive only when it must mutate the entry itself (clearing
//     needs-copy / allocating the amap);
//   - each amap, anon and uobject carries its own mutex guarding its
//     reference count and contents;
//   - page state bits are atomics and page identity (owner) has a
//     per-page mutex (see internal/phys), so loan teardown and the
//     pagedaemon can make atomic keep-or-free decisions about frames
//     whose owner is changing;
//   - the page queues in internal/phys are sharded with per-shard locks;
//   - the stat counters in internal/sim are lock-free atomics.
//
// The lock ordering is:
//
//	map -> object -> amap -> anon -> page identity -> leaf
//
// where "leaf" covers the pmap/MMU locks, the phys queue shards, the
// sharded swap allocator, vfs and disk — none of which acquire VM-layer
// locks. Two map locks nest only parent-before-child during fork (the
// child is not yet visible to any other goroutine).
//
// Within the pmap leaf there is one further level: a pmap's own mutex
// nests above the MMU's reverse-map (pv) bucket locks, at most one
// bucket is held at a time (batch operations hold a bucket across each
// run of consecutive edits that hash to it), and bucket locks are strict
// leaves — nothing is acquired under them (see the locking note in
// internal/pmap). The batched fault-ahead path (lookahead) resolves its
// whole advice window under one amap lock acquisition — candidate anons
// are TryLocked, busy neighbours drop out — plus at most one object
// acquisition taken lazily when a candidate lacks an anon; with the
// amap held that object acquisition is out of order, which is safe
// because it is TryLock-only and so can never form a blocking cycle.
// The collected owner locks are held across a single Pmap.EnterBatch,
// so reclaim's TryLock-and-skip protocol keeps those pages live until
// they are mapped.
//
// The phys leaf is one level: the page-queue shard locks, which are
// strict leaves (allocation, free and queue moves take exactly one;
// only the pagedaemon's RefillInactive takes them all, in index order).
// Completion callbacks and reclaim may free or allocate pages under the
// same rules as any other path.
//
// # Pageout
//
// Reclaim runs in a dedicated pagedaemon goroutine (see pdaemon.go),
// woken by phys.Mem's low-water callback; allocators that find the free
// list empty block on the daemon's condition variable instead of
// reclaiming inline, and retry once a reclaim round completes. Reclaim —
// whether in the daemon, a reclaim worker, or the direct-reclaim
// fallback — acquires anon/object locks only with TryLock and skips
// pages whose owner is busy, so it can run concurrently with any
// allocation path — even one that already holds map, amap, anon or
// object locks — without deadlocking; pages clustered for pageout keep
// their owner locked until the I/O completes, which is what makes a
// concurrent fault on a page mid-pageout block and then cleanly page
// back in. System.Shutdown stops the daemon gracefully, releasing any
// blocked allocators, and drains in-flight pageout I/O.
//
// The daemon's cluster I/O is overlapped with its next scan: it
// submits each write with swap.WriteClusterAsync and scans on (direct
// reclaim and cfg.InlineReclaim, whose caller needs a page now, write
// synchronously);
// ownership of the cluster's locked anons/objects travels with the
// in-flight I/O and the *completion callback* — running on a swap I/O
// goroutine — detaches and frees the pages, releases those locks, and
// wakes blocked allocators. Completion callbacks therefore inherit the
// lock order mid-chain: they hold (but never acquire) anon/object
// locks, and may only take locks strictly below them — page identity
// and leaf locks (phys queue shards, the swap allocator, the daemon's
// own condvar mutex). A completion callback must never lock a map or an
// amap, and never blocks on a TryLock-only path, so it cannot deadlock
// against faults, reclaim workers, or Shutdown. With cfg.ReclaimWorkers
// > 1 the daemon dispatches that many workers per round over disjoint
// runs of one inactive-queue snapshot; the daemon itself remains the
// only watermark/round coordinator.
//
// # Object writeback
//
// The object writeback pipeline (objwb.go, cfg.AsyncWriteback) extends
// the same completion discipline to the paths that clean object pages
// without evicting them — Msync, vnode recycling, last-unmap flushes —
// and to the pagedaemon's vnode put path. Dirty pages are collected and
// marked Busy under the object lock, their writable mappings narrowed,
// and the lock released; the pages then leave as contiguous-offset
// clusters through a per-backend bounded in-flight window (vnode pages
// via the vfs async writer, aobj pages via swap.WriteClusterAsync). A
// fault or file write that hits a busy page sleeps on the system
// writeback condvar; the cluster's completion clears Dirty/Busy, wakes
// those waiters, and signals the submitter's batch. Writeback
// completions run on I/O goroutines holding no VM locks and may only
// touch page state, the stats and that condvar — never a map, object or
// amap lock — so they cannot deadlock against faults or reclaim. The
// reclaim flavour (vnodePageoutAsync) instead inherits its object lock
// from the scan, exactly like swap pageout completions.
package uvm

import (
	"sync"
	"sync/atomic"

	"uvm/internal/param"
	"uvm/internal/sim"
	"uvm/internal/vmapi"
)

// Config tunes UVM. Use DefaultConfig as the baseline.
type Config struct {
	// ReclaimBatch is the pagedaemon's per-activation free target.
	ReclaimBatch int
	// MaxCluster is the largest anonymous pageout cluster the pagedaemon
	// assembles (64 pages = 256 KB, UVM's default).
	MaxCluster int
	// DisableClustering forces one-page-at-a-time anonymous pageout
	// (ablation for Figure 5).
	DisableClustering bool
	// DisableLookahead turns off fault-time neighbour mapping (ablation
	// for Table 2).
	DisableLookahead bool
	// KernelEntryPool bounds kernel map entries, as in BSD VM.
	KernelEntryPool int
	// AmapImpl selects the anonymous-map storage strategy: the array
	// implementation UVM ships with, or the hash/array hybrid the paper
	// suggests for large sparse amaps (§5.3).
	AmapImpl AmapImplKind
	// AsyncPagein enables the paper's §10 future-work feature: on a
	// fault, schedule non-resident neighbour pages for pagein so nearby
	// future faults find them resident.
	AsyncPagein bool
	// InlineReclaim disables the asynchronous pagedaemon: allocating
	// goroutines reclaim and page out synchronously, as both systems did
	// before the daemon existed (the paper experiments, and the
	// synchronous baseline of the memory-pressure and reclaim-bandwidth
	// experiments).
	InlineReclaim bool
	// ReclaimWorkers is the number of parallel reclaim workers the
	// daemon dispatches per round. The workers claim consecutive
	// MaxCluster-page runs of one LRU-ordered inactive-queue snapshot,
	// so their clusters keep the single scan's swap layout. 0 or 1 keeps
	// the classic single scan, whose operation order is
	// byte-deterministic on single-threaded runs.
	ReclaimWorkers int
	// PageinCluster is the largest clustered-pagein window, in pages: on
	// a swap-backed anon fault, up to this many adjacent allocated slots
	// are read with one I/O (the read-side mirror of clustered pageout).
	// It also sizes the aobj clustered-pagein window: an aobj fault drags
	// in neighbour pages whose swap slots adjoin the faulting one. 0 or 1
	// disables clustering and pages in one slot at a time.
	PageinCluster int
	// AsyncWriteback routes the object writeback paths — Msync, vnode
	// recycling, last-unmap write-back — through the asynchronous
	// clustered engine (objwb.go): dirty pages are collected under the
	// object lock, marked busy, and flushed as contiguous-offset clusters
	// through a per-backend bounded in-flight window (vnode pages to the
	// file, aobj pages to swap) while the submitter merely waits on the
	// completions. Off, those paths put one page per I/O, synchronously,
	// which keeps single-threaded runs byte-deterministic.
	AsyncWriteback bool
	// WritebackCluster caps pages per object writeback I/O. 0 means
	// MaxCluster.
	WritebackCluster int
}

// DefaultConfig returns UVM's standard tuning.
func DefaultConfig() Config {
	return Config{
		ReclaimBatch:    64,
		MaxCluster:      64,
		KernelEntryPool: 4000,
	}
}

// System is a booted UVM instance.
type System struct {
	mach *vmapi.Machine
	cfg  Config

	// pd is the asynchronous pagedaemon (nil with cfg.InlineReclaim).
	pd *pagedaemon

	kmap      *vmMap
	kentryUse atomic.Int32

	// Cached counter handles for the fault path and per-page loop paths,
	// resolved once at boot so the hot paths skip the string-keyed Stats
	// lookup (the counterhandle analyzer enforces this idiom in loops).
	ctrFaults          sim.Counter
	ctrFaultsRead      sim.Counter
	ctrFaultsWrite     sim.Counter
	ctrAnonAlloc       sim.Counter
	ctrAnonLive        sim.Counter
	ctrAmapAlloc       sim.Counter
	ctrAmapLive        sim.Counter
	ctrCowCopies       sim.Counter
	ctrLookaheadMapped sim.Counter
	ctrEntryAlloc      sim.Counter
	ctrEntryLive       sim.Counter
	ctrMapLockHeld     sim.Counter
	ctrPageIns         sim.Counter
	ctrPageOuts        sim.Counter
	ctrAsyncPageinPgs  sim.Counter
	ctrObjWbClusters   sim.Counter
	ctrObjWbPages      sim.Counter
	ctrPdRounds        sim.Counter
	ctrPdDirect        sim.Counter
	ctrPdWorkerRounds  sim.Counter
	ctrUbcReads        sim.Counter
	ctrUbcWrites       sim.Counter

	// vnObjMu serialises vnode<->uvm_object identity: the create-or-ref
	// decision in vnodeObject must be atomic across concurrent mappers
	// of the same file.
	//uvm:lock vnobj
	vnObjMu sync.Mutex

	//uvm:lock system
	procMu sync.Mutex
	procs  map[*Process]struct{}

	// lookaheadGate, when non-nil, runs between lookahead's candidate
	// collection and the batched pmap entry, with the candidates' owner
	// locks held. Test hook: the lookahead-vs-reclaim race test uses it
	// to run a reclaim pass inside the batching window.
	lookaheadGate func()

	// copyGate, when non-nil, runs in copyBytes between the fault that
	// makes a page resident and the lookup that finds it. Test hook: the
	// copyin/copyout eviction test pages the frame out in that window.
	copyGate func()

	// msyncGate, when non-nil, runs after an asynchronous flush has
	// submitted its clusters (object lock released, pages busy, I/O in
	// flight) and before the submitter waits on the batch. Test hook for
	// the msync race tests. Must be set before the flush starts.
	msyncGate func()
	// wbGate, when non-nil, runs at the start of every object writeback
	// completion, on the I/O goroutine. Test hook: the msync race tests
	// use it to hold completions while concurrent faults and reclaim
	// passes probe the busy pages.
	wbGate func()

	// Writeback waiter state: paths that find an object page busy (a
	// flush owns its contents) sleep here; wbGen is bumped and the
	// condvar broadcast by every flush completion (see objwb.go).
	//uvm:lock wbcond
	wbMu   sync.Mutex
	wbCond *sync.Cond
	wbGen  uint64
}

// Boot boots UVM on machine m with default configuration.
func Boot(m *vmapi.Machine) vmapi.System { return BootConfig(m, DefaultConfig()) }

// BootConfig boots with an explicit configuration.
func BootConfig(m *vmapi.Machine, cfg Config) *System {
	s := &System{
		mach:  m,
		cfg:   cfg,
		procs: make(map[*Process]struct{}),
	}
	s.ctrFaults = m.Stats.Counter(sim.CtrFaults)
	s.ctrFaultsRead = m.Stats.Counter(sim.CtrFaultsRead)
	s.ctrFaultsWrite = m.Stats.Counter(sim.CtrFaultsWrite)
	s.ctrAnonAlloc = m.Stats.Counter("uvm.anon.alloc")
	s.ctrAnonLive = m.Stats.Counter("uvm.anon.live")
	s.ctrAmapAlloc = m.Stats.Counter("uvm.amap.alloc")
	s.ctrAmapLive = m.Stats.Counter("uvm.amap.live")
	s.ctrCowCopies = m.Stats.Counter("uvm.cow.copies")
	s.ctrLookaheadMapped = m.Stats.Counter("uvm.lookahead.mapped")
	s.ctrEntryAlloc = m.Stats.Counter("uvm.mapentry.alloc")
	s.ctrEntryLive = m.Stats.Counter("uvm.mapentry.live")
	s.ctrMapLockHeld = m.Stats.Counter("uvm.map.lockheld_ns")
	s.ctrPageIns = m.Stats.Counter(sim.CtrPageIns)
	s.ctrPageOuts = m.Stats.Counter(sim.CtrPageOuts)
	s.ctrAsyncPageinPgs = m.Stats.Counter("uvm.asyncpagein.pages")
	s.ctrObjWbClusters = m.Stats.Counter(sim.CtrObjWbClusters)
	s.ctrObjWbPages = m.Stats.Counter(sim.CtrObjWbPages)
	s.ctrPdRounds = m.Stats.Counter(sim.CtrPdRounds)
	s.ctrPdDirect = m.Stats.Counter(sim.CtrPdDirect)
	s.ctrPdWorkerRounds = m.Stats.Counter(sim.CtrPdWorkerRounds)
	s.ctrUbcReads = m.Stats.Counter("uvm.ubc.reads")
	s.ctrUbcWrites = m.Stats.Counter("uvm.ubc.writes")
	s.wbCond = sync.NewCond(&s.wbMu)
	s.kmap = s.newMap("kernel", param.KernelBase, param.KernelMax, true)

	// Kernel text, data, bss — always-wired segments. Because they are
	// always wired, UVM does not track per-range wiring in the kernel map
	// (§3.2); adjacent boot allocations merge.
	for _, seg := range []struct {
		pages int
		prot  param.Prot
	}{{300, param.ProtRX}, {80, param.ProtRW}, {120, param.ProtRW}} {
		if _, err := s.kernelAlloc(seg.pages, seg.prot); err != nil {
			panic("uvm: kernel boot allocation failed: " + err.Error())
		}
	}

	if !cfg.InlineReclaim {
		s.pd = newPagedaemon(s, s.lowWater())
		m.Mem.SetLowWater(s.pd.low, s.pd.kick)
		go s.pd.run()
	}
	return s
}

// lowWater sizes the pagedaemon's wake threshold for this machine:
// max(2×MaxCluster, total/64), capped at total/4.
func (s *System) lowWater() int {
	total := s.mach.Mem.TotalPages()
	low := 2 * s.cfg.MaxCluster
	if low < total/64 {
		low = total / 64
	}
	if low > total/4 {
		low = total / 4
	}
	if low < 1 {
		low = 1
	}
	return low
}

// Shutdown implements vmapi.System: it stops the pagedaemon goroutine,
// releasing any allocators blocked on it, waits for it to exit, and then
// drains any asynchronous pageout writes still in flight so no completion
// callback touches VM structures after Shutdown returns. The system
// remains usable — reclaim falls back to running inline in allocating
// goroutines — so shutdown order is forgiving. Idempotent.
func (s *System) Shutdown() {
	if s.pd != nil {
		s.pd.stop()
		s.mach.Swap.DrainAsync()
	}
	// Fire-and-forget object writebacks (last-unmap flushes) may still be
	// on the wire; drain both backends so no completion callback touches
	// VM structures after Shutdown returns. (Msync and recycle wait for
	// their own batches, so only unwaited submissions are left here.)
	s.mach.FS.DrainWrites()
	s.mach.Swap.DrainAsync()
}

// Name implements vmapi.System.
func (s *System) Name() string { return "uvm" }

// Machine implements vmapi.System.
func (s *System) Machine() *vmapi.Machine { return s.mach }

// KernelAlloc implements vmapi.System: wired kernel allocations coalesce
// with their neighbour when attributes match, so boot-time subsystem
// allocations do not each consume a map entry.
func (s *System) KernelAlloc(npages int, prot param.Prot) (param.VAddr, error) {
	return s.kernelAlloc(npages, prot)
}

func (s *System) kernelAlloc(npages int, prot param.Prot) (param.VAddr, error) {
	s.kmap.lock()
	defer s.kmap.unlock()
	va, err := s.kmap.findSpace(0, param.VSize(npages)*param.PageSize)
	if err != nil {
		return 0, err
	}
	e := s.allocEntry(s.kmap)
	e.start, e.end = va, va+param.VAddr(npages)*param.PageSize
	e.prot, e.maxProt = prot, param.ProtRWX
	e.wired = 1
	s.kmap.insertOrMerge(e)
	return va, nil
}

// KernelMapEntries implements vmapi.System.
func (s *System) KernelMapEntries() int {
	s.kmap.mu.RLock()
	defer s.kmap.mu.RUnlock()
	return s.kmap.n
}

// TotalMapEntries implements vmapi.System.
func (s *System) TotalMapEntries() int {
	s.procMu.Lock()
	defer s.procMu.Unlock()
	s.kmap.mu.RLock()
	total := s.kmap.n
	s.kmap.mu.RUnlock()
	//uvm:maporder-ok summing counts; order-independent
	for p := range s.procs {
		if p.vforked {
			continue // shares its parent's map; counting it would double
		}
		p.m.mu.RLock()
		total += p.m.n
		p.m.mu.RUnlock()
	}
	return total
}

// addProc registers a fully initialised process.
func (s *System) addProc(p *Process) {
	s.procMu.Lock()
	s.procs[p] = struct{}{}
	s.procMu.Unlock()
	s.mach.Stats.Inc("uvm.proc.created")
}

func (s *System) dropProc(p *Process) {
	s.procMu.Lock()
	delete(s.procs, p)
	s.procMu.Unlock()
	s.mach.Stats.Inc("uvm.proc.exited")
}
