package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"

	"uvm/internal/param"
	"uvm/internal/sim"
	"uvm/internal/uvm"
	"uvm/internal/vfs"
	"uvm/internal/vmapi"
)

// client is one closed-loop worker's view of a workload: a long-lived
// simulated process plus the generated inputs it draws requests from.
type client interface {
	// request performs one request and returns its type (an index into
	// workload.reqTypes) and how it failed, failNone on success.
	request(w *worker) (int, failKind)
	// close exits the client's process.
	close()
}

// workload is one benchmark workload: the machine it boots uvm on, the
// number of closed-loop workers, how the data set is populated, and the
// fence that fails a run which stopped exercising the workload's layers.
type workload struct {
	name     string
	workers  int
	reqTypes []string
	machine  func() vmapi.MachineConfig
	populate func(sys vmapi.System, seed uint64, w *worker) ([]client, error)
	// fence checks the counter deltas of one measured phase (since
	// holds the counters at boot, for whole-run checks).
	fence func(phase, sinceBoot map[string]int64) error
}

var workloads = []*workload{anonCow, fileServe, anonSwap}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (valid: %v)", name, names)
}

// boot builds a machine for wl and boots uvm on it with its shipped
// default configuration: the benchmark sets no uvm.Config knob.
func boot(wl *workload) vmapi.System {
	return uvm.Boot(vmapi.NewMachine(wl.machine()))
}

// failKind classifies a failed call, data check or request.
type failKind int

const (
	failNone failKind = iota
	failFault
	failDeadlock
	failMismatch
	failOther
	numFailKinds
)

var failNames = [numFailKinds]string{"none", "fault", "deadlock", "mismatch", "other"}

// classify maps a call's error to its failure kind.
func classify(err error) failKind {
	switch {
	case err == nil:
		return failNone
	case errors.Is(err, vmapi.ErrFault):
		return failFault
	case errors.Is(err, vmapi.ErrDeadlock):
		return failDeadlock
	}
	return failOther
}

// maxAttempts bounds how often worker.access tries one call.
const maxAttempts = 4

// worker carries what a request needs from the loop driving it: the
// tracer, nil on untraced runs, and the failed attempts counted so far.
type worker struct {
	*tracer
	failed [numFailKinds]int64
}

// access runs one ReadBytes or WriteBytes call, trying it again when it
// fails, up to maxAttempts in all. Both fail spuriously with ErrFault when
// the pagedaemon evicts the page between the fault and the copy; the
// benchmark counts every failed attempt, so the race shows, and fails the
// request only when the last attempt fails too.
func (w *worker) access(call func() error) failKind {
	for i := 1; ; i++ {
		k := classify(call())
		if k == failNone {
			return failNone
		}
		w.failed[k]++
		if i == maxAttempts {
			return k
		}
	}
}

// sigLen is the size of the signature written into anonymous pages.
const sigLen = 32

// putSig writes a signature identifying (a, b, c) into dst[:sigLen].
func putSig(dst []byte, a, b, c uint64) {
	binary.LittleEndian.PutUint64(dst[0:], a)
	binary.LittleEndian.PutUint64(dst[8:], b)
	binary.LittleEndian.PutUint64(dst[16:], c)
	binary.LittleEndian.PutUint64(dst[24:], mix(a, b, c))
}

// mix is a cheap hash of three words (splitmix64 finaliser).
func mix(a, b, c uint64) uint64 {
	x := a*0x9e3779b97f4a7c15 ^ b*0xbf58476d1ce4e5b9 ^ c*0x94d049bb133111eb
	x ^= x >> 31
	x *= 0xbf58476d1ce4e5b9
	return x ^ x>>29
}

func pageVA(base param.VAddr, pg int) param.VAddr {
	return base + param.VAddr(pg)*param.PageSize
}

// newRNG returns the input stream of one worker (stream 0 and up) or of
// set-up (stream ^0) under seed.
func newRNG(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// ---------------------------------------------------------------------
// anon-cow: zero-fill and copy-on-write faults, fork and exit, two workers.

const (
	cowWorkers  = 2
	cowPages    = 64 // pages per request region
	cowChildMin = 8  // pages the child overwrites: uniform in [min, max],
	cowChildMax = 24 // 16 on average
	childTag    = 1 << 32
)

var anonCow = &workload{
	name:     "anon-cow",
	workers:  cowWorkers,
	reqTypes: []string{"cow"},
	machine:  vmapi.DefaultConfig,
	populate: func(sys vmapi.System, seed uint64, w *worker) ([]client, error) {
		cs := make([]client, cowWorkers)
		for i := range cs {
			p, err := sys.NewProcess(fmt.Sprintf("cow%d", i))
			if err != nil {
				return nil, err
			}
			c := &cowClient{proc: p, tag: uint64(i + 1), rng: newRNG(seed, uint64(i))}
			for j := range c.perm {
				c.perm[j] = j
			}
			cs[i] = c
		}
		return cs, nil
	},
	fence: func(_, sinceBoot map[string]int64) error {
		// RAM is sized so the working set always fits: reclaim and I/O
		// must stay idle, or the run measures something else.
		for _, k := range []string{sim.CtrPdRounds, sim.CtrDiskReads, sim.CtrDiskWrites} {
			if sinceBoot[k] != 0 {
				return fmt.Errorf("anon-cow: %s = %d since boot, want 0", k, sinceBoot[k])
			}
		}
		return nil
	},
}

type cowClient struct {
	proc vmapi.Process
	tag  uint64
	rng  *rand.Rand
	n    uint64
	perm [cowPages]int
	sig  [sigLen]byte
	got  [sigLen]byte
}

func (c *cowClient) close() { c.proc.Exit() }

// request maps a private anonymous region, zero-fill faults a signature
// into every page, forks a child that copy-on-write faults some pages and
// exits, then checks that the parent's signatures survived.
func (c *cowClient) request(w *worker) (int, failKind) {
	size := param.VSize(cowPages * param.PageSize)
	sp := w.begin(opMmap)
	va, err := c.proc.Mmap(0, size, param.ProtRead|param.ProtWrite, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	w.end(sp)
	if err != nil {
		return 0, classify(err)
	}
	fail := c.cow(w, va)
	sp = w.begin(opMunmap)
	err = c.proc.Munmap(va, size)
	w.end(sp)
	if fail == failNone {
		fail = classify(err)
	}
	return 0, fail
}

func (c *cowClient) cow(w *worker, va param.VAddr) failKind {
	c.n++
	for pg := 0; pg < cowPages; pg++ {
		putSig(c.sig[:], c.tag, c.n, uint64(pg))
		sp := w.begin(opZfod)
		fail := w.access(func() error { return c.proc.WriteBytes(pageVA(va, pg), c.sig[:]) })
		w.end(sp)
		if fail != failNone {
			return fail
		}
	}
	sp := w.begin(opFork)
	child, err := c.proc.Fork("child")
	w.end(sp)
	if err != nil {
		return classify(err)
	}
	fail := failNone
	k := cowChildMin + c.rng.IntN(cowChildMax-cowChildMin+1)
	for i := 0; i < k && fail == failNone; i++ {
		j := i + c.rng.IntN(cowPages-i)
		c.perm[i], c.perm[j] = c.perm[j], c.perm[i]
		putSig(c.sig[:], c.tag|childTag, c.n, uint64(c.perm[i]))
		sp := w.begin(opCow)
		fail = w.access(func() error { return child.WriteBytes(pageVA(va, c.perm[i]), c.sig[:]) })
		w.end(sp)
	}
	sp = w.begin(opExit)
	child.Exit()
	w.end(sp)
	if fail != failNone {
		return fail
	}
	mismatch := false
	for pg := 0; pg < cowPages; pg++ {
		sp := w.begin(opResident)
		fail := w.access(func() error { return c.proc.ReadBytes(pageVA(va, pg), c.got[:]) })
		w.end(sp)
		if fail != failNone {
			return fail
		}
		putSig(c.sig[:], c.tag, c.n, uint64(pg))
		if c.got != c.sig {
			mismatch = true
		}
	}
	if mismatch {
		return failMismatch
	}
	return failNone
}

// ---------------------------------------------------------------------
// file-serve: mmap-served files through the vnode object cache, one worker.

const (
	fileRAMPages  = 4096 // 16 MB of RAM
	filePages     = 8    // pages per file
	fileCount     = 2 * fileRAMPages / filePages
	fileMaxVnodes = 3 * fileCount / 4 // below the file count, above RAM
	fileReadPages = 4
	fileUpdatePct = 10
	fileZipfS     = 1.0
)

var fileServe = &workload{
	name:     "file-serve",
	workers:  1,
	reqTypes: []string{"read", "update"},
	machine: func() vmapi.MachineConfig {
		cfg, err := vmapi.ProfileConfig("nvme")
		if err != nil {
			panic(err) // unreachable: nvme is a built-in profile
		}
		cfg.RAMPages = fileRAMPages
		cfg.MaxVnodes = fileMaxVnodes
		return cfg
	},
	populate: func(sys vmapi.System, seed uint64, w *worker) ([]client, error) {
		fs := sys.Machine().FS
		c := &fileClient{
			fs:    fs,
			rng:   newRNG(seed, 0),
			names: make([]string, fileCount),
			gen:   make([][filePages]uint32, fileCount),
			zipf:  newZipf(fileCount, fileZipfS),
			rank:  newRNG(seed, ^uint64(0)).Perm(fileCount),
		}
		for f := range c.names {
			c.names[f] = fmt.Sprintf("/srv/f%04d", f)
			err := fs.Create(c.names[f], filePages*param.PageSize, func(pg int, buf []byte) {
				putPage(buf, f, pg, 0)
			})
			if err != nil {
				return nil, err
			}
		}
		p, err := sys.NewProcess("server")
		if err != nil {
			return nil, err
		}
		c.proc = p
		return []client{c}, nil
	},
	fence: func(phase, _ map[string]int64) error {
		for _, k := range []string{sim.CtrPageIns, "vfs.recycles"} {
			if phase[k] == 0 {
				return fmt.Errorf("file-serve: no %s in the measured phase", k)
			}
		}
		return nil
	},
}

type fileClient struct {
	fs    *vfs.FS
	proc  vmapi.Process
	rng   *rand.Rand
	names []string
	gen   [][filePages]uint32 // current version of each file page
	zipf  *zipf
	rank  []int // popularity rank -> file
	page  [param.PageSize]byte
}

func (c *fileClient) close() { c.proc.Exit() }

const (
	reqRead = iota
	reqUpdate
)

// putPage writes the content of version gen of page pg of file f: a
// header and a trailer, zeros between.
func putPage(buf []byte, f, pg int, gen uint32) {
	binary.LittleEndian.PutUint64(buf[0:], uint64(f))
	binary.LittleEndian.PutUint64(buf[8:], uint64(pg))
	binary.LittleEndian.PutUint64(buf[16:], uint64(gen))
	binary.LittleEndian.PutUint64(buf[len(buf)-8:], mix(uint64(f), uint64(pg), uint64(gen)))
}

func pageOK(buf []byte, f, pg int, gen uint32) bool {
	le := binary.LittleEndian
	return le.Uint64(buf[0:]) == uint64(f) && le.Uint64(buf[8:]) == uint64(pg) &&
		le.Uint64(buf[16:]) == uint64(gen) &&
		le.Uint64(buf[len(buf)-8:]) == mix(uint64(f), uint64(pg), uint64(gen))
}

// request opens a Zipf-popular file and maps it shared. A read checks 4
// consecutive pages against the file's current content; an update (10%)
// rewrites one page through a writable mapping and msyncs it.
func (c *fileClient) request(w *worker) (int, failKind) {
	f := c.rank[c.zipf.next(c.rng)]
	typ := reqRead
	prot := param.ProtRead
	if c.rng.IntN(100) < fileUpdatePct {
		typ = reqUpdate
		prot |= param.ProtWrite
	}
	sp := w.begin(opOpen)
	vn, err := c.fs.Open(c.names[f])
	w.end(sp)
	if err != nil {
		return typ, classify(err)
	}
	size := param.VSize(filePages * param.PageSize)
	sp = w.begin(opMmap)
	va, err := c.proc.Mmap(0, size, prot, vmapi.MapShared, vn, 0)
	w.end(sp)
	fail := classify(err)
	if fail == failNone {
		if typ == reqUpdate {
			fail = c.update(w, va, f)
		} else {
			fail = c.read(w, va, f)
		}
		sp = w.begin(opMunmap)
		err = c.proc.Munmap(va, size)
		w.end(sp)
		if fail == failNone {
			fail = classify(err)
		}
	}
	sp = w.begin(opUnref)
	vn.Unref()
	w.end(sp)
	return typ, fail
}

func (c *fileClient) read(w *worker, va param.VAddr, f int) failKind {
	first := c.rng.IntN(filePages - fileReadPages + 1)
	mismatch := false
	for pg := first; pg < first+fileReadPages; pg++ {
		sp := w.beginIO(opFile)
		fail := w.access(func() error { return c.proc.ReadBytes(pageVA(va, pg), c.page[:]) })
		w.end(sp)
		if fail != failNone {
			return fail
		}
		if !pageOK(c.page[:], f, pg, c.gen[f][pg]) {
			mismatch = true
		}
	}
	if mismatch {
		return failMismatch
	}
	return failNone
}

func (c *fileClient) update(w *worker, va param.VAddr, f int) failKind {
	pg := c.rng.IntN(filePages)
	gen := c.gen[f][pg] + 1
	putPage(c.page[:], f, pg, gen)
	sp := w.beginIO(opFile)
	fail := w.access(func() error { return c.proc.WriteBytes(pageVA(va, pg), c.page[:]) })
	w.end(sp)
	if fail != failNone {
		return fail
	}
	c.gen[f][pg] = gen
	sp = w.begin(opMsync)
	err := c.proc.Msync(pageVA(va, pg), param.PageSize)
	w.end(sp)
	return classify(err)
}

// ---------------------------------------------------------------------
// anon-swap: an anonymous region three times RAM under paging, one worker.

const (
	swapRAMPages    = 2048 // 8 MB of RAM
	swapRegionPages = 3 * swapRAMPages
	swapZipfS       = 1.0
)

var anonSwap = &workload{
	name:     "anon-swap",
	workers:  1,
	reqTypes: []string{"read", "write"},
	machine: func() vmapi.MachineConfig {
		cfg, err := vmapi.ProfileConfig("hdd97")
		if err != nil {
			panic(err) // unreachable: hdd97 is a built-in profile
		}
		cfg.RAMPages = swapRAMPages // swap stays at 128 MB, room to cluster
		return cfg
	},
	populate: func(sys vmapi.System, seed uint64, w *worker) ([]client, error) {
		p, err := sys.NewProcess("swapper")
		if err != nil {
			return nil, err
		}
		c := &swapClient{
			proc: p,
			rng:  newRNG(seed, 0),
			zipf: newZipf(swapRegionPages, swapZipfS),
			rank: newRNG(seed, ^uint64(0)).Perm(swapRegionPages),
			gen:  make([]uint32, swapRegionPages),
		}
		c.va, err = p.Mmap(0, swapRegionPages*param.PageSize, param.ProtRead|param.ProtWrite,
			vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
		if err != nil {
			return nil, err
		}
		for pg := 0; pg < swapRegionPages; pg++ {
			putSig(c.sig[:], uint64(pg), 0, 0)
			if k := w.access(func() error { return c.proc.WriteBytes(pageVA(c.va, pg), c.sig[:]) }); k != failNone {
				return nil, fmt.Errorf("populating page %d: %s", pg, failNames[k])
			}
		}
		return []client{c}, nil
	},
	fence: func(phase, _ map[string]int64) error {
		if phase[sim.CtrPageOuts] == 0 {
			return fmt.Errorf("anon-swap: no %s in the measured phase", sim.CtrPageOuts)
		}
		return nil
	},
}

type swapClient struct {
	proc vmapi.Process
	va   param.VAddr
	rng  *rand.Rand
	zipf *zipf
	rank []int    // popularity rank -> page
	gen  []uint32 // current generation of each page's signature
	sig  [sigLen]byte
	got  [sigLen]byte
}

func (c *swapClient) close() { c.proc.Exit() }

const (
	reqSwapRead = iota
	reqSwapWrite
)

// request picks a Zipf-popular page; half the requests write a new
// (page, generation) signature, half read and check the current one.
func (c *swapClient) request(w *worker) (int, failKind) {
	pg := c.rank[c.zipf.next(c.rng)]
	if c.rng.IntN(2) == 0 {
		gen := c.gen[pg] + 1
		putSig(c.sig[:], uint64(pg), uint64(gen), 0)
		sp := w.beginIO(opSwapin)
		fail := w.access(func() error { return c.proc.WriteBytes(pageVA(c.va, pg), c.sig[:]) })
		w.end(sp)
		if fail == failNone {
			c.gen[pg] = gen
		}
		return reqSwapWrite, fail
	}
	sp := w.beginIO(opSwapin)
	fail := w.access(func() error { return c.proc.ReadBytes(pageVA(c.va, pg), c.got[:]) })
	w.end(sp)
	if fail != failNone {
		return reqSwapRead, fail
	}
	putSig(c.sig[:], uint64(pg), uint64(c.gen[pg]), 0)
	if c.got != c.sig {
		return reqSwapRead, failMismatch
	}
	return reqSwapRead, failNone
}
