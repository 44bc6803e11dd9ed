package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sync"
	"time"

	"uvm/internal/sim"
	"uvm/internal/vmapi"
)

// runConfig is one invocation of the benchmark.
type runConfig struct {
	wl   *workload
	seed uint64
	// measure is the length of the measured phase; with trace it is split
	// evenly between an untraced and a traced phase. requests, when
	// positive, replaces it with a fixed request count per worker (tests).
	measure  time.Duration
	requests int64
	warmup   time.Duration
	setups   int
	trace    bool
	// outDir receives the span file and CPU profile of a traced run.
	outDir string
}

// phase is what one stretch of closed-loop load measured.
type phase struct {
	requests, failed int64
	fails            [][numFailKinds]int64 // failed requests by type, then kind
	attempts         [][numFailKinds]int64 // failed call attempts and checks, likewise
	host, sim        time.Duration
	mallocs          uint64
	delta            map[string]int64 // counter deltas
	samples          []sample         // per-request latencies
	tracers          []*tracer        // nil entries on untraced phases
}

// budget ends a phase at a deadline or after a request count per worker.
type budget struct {
	until    time.Time
	requests int64
}

func (b budget) done(n int64) bool {
	if b.requests > 0 {
		return n >= b.requests
	}
	return !time.Now().Before(b.until)
}

func (cfg runConfig) budget(d time.Duration) budget {
	if cfg.requests > 0 {
		return budget{requests: cfg.requests}
	}
	return budget{until: time.Now().Add(d)}
}

// Per-worker buffer sizes, allocated before a phase starts.
const (
	sampleCap = 1 << 20
	spanCap   = 1 << 18
)

// runPhase drives every client in its own goroutine until b runs out and
// returns what the phase measured. traced gives each worker a span buffer.
func runPhase(m *vmapi.Machine, wl *workload, clients []client, b budget, traced bool) *phase {
	samplers := make([]*sampler, len(clients))
	tracers := make([]*tracer, len(clients))
	results := make([]*phase, len(clients))
	for i := range clients {
		samplers[i] = newSampler(sampleCap)
	}
	runtime.GC()
	before := m.Stats.Snapshot()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	sim0, t0 := m.Clock.Now(), time.Now()
	if traced {
		for i := range tracers {
			tracers[i] = newTracer(m, spanCap, t0)
		}
	}
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = drive(m, wl, c, i, b, t0, samplers[i], tracers[i])
		}()
	}
	wg.Wait()
	ph := &phase{
		fails:    make([][numFailKinds]int64, len(wl.reqTypes)),
		attempts: make([][numFailKinds]int64, len(wl.reqTypes)),
		host:     time.Since(t0),
		sim:      m.Clock.Since(sim0),
		delta:    m.Stats.Snapshot(),
		tracers:  tracers,
	}
	runtime.ReadMemStats(&ms)
	ph.mallocs = ms.Mallocs - mallocs
	//uvm:maporder-ok per-key subtraction, order-independent
	for k, v := range before {
		ph.delta[k] -= v
	}
	for i, r := range results {
		ph.requests += r.requests
		ph.failed += r.failed
		for t := range r.fails {
			for k := range r.fails[t] {
				ph.fails[t][k] += r.fails[t][k]
				ph.attempts[t][k] += r.attempts[t][k]
			}
		}
		ph.samples = append(ph.samples, samplers[i].samples...)
	}
	return ph
}

// drive is one closed-loop worker: it sends its next request only when the
// previous one has returned.
func drive(m *vmapi.Machine, wl *workload, c client, id int, b budget, start time.Time, s *sampler, t *tracer) *phase {
	r := &phase{
		fails:    make([][numFailKinds]int64, len(wl.reqTypes)),
		attempts: make([][numFailKinds]int64, len(wl.reqTypes)),
	}
	w := &worker{tracer: t}
	for !b.done(r.requests) && !t.full() {
		h0, s0 := time.Now(), m.Clock.Now()
		t.beginRequest(int64(id)<<40 | r.requests)
		typ, fail := c.request(w)
		t.endRequest()
		if fail == failMismatch {
			w.failed[failMismatch]++
		}
		for k, n := range w.failed {
			r.attempts[typ][k] += n
		}
		w.failed = [numFailKinds]int64{}
		x := sample{
			host:   sat32(int64(time.Since(h0))),
			sim:    sat32(int64(m.Clock.Since(s0))),
			doneMs: uint32(time.Since(start).Milliseconds()),
		}
		r.requests++
		if fail != failNone {
			r.failed++
			r.fails[typ][fail]++
			// A failed request misses every latency limit.
			x.host, x.sim = math.MaxUint32, math.MaxUint32
		}
		s.add(x)
	}
	return r
}

// result is everything one run measured.
type result struct {
	wl        *workload
	cfg       runConfig
	setup     []time.Duration
	setupFail [numFailKinds]int64 // failed, retried call attempts during set-up
	measured  *phase              // untraced
	traced    *phase              // nil unless cfg.trace
	memMB     float64
	sinceBoot map[string]int64
	costs     *sim.Costs
	problems  []string // failed correctness checks and fences
	shares    map[string]float64
	memclr    float64
}

// run performs one benchmark invocation: set-up (repeated cfg.setups
// times, keeping the last machine), warm-up, the measured phase or phases,
// the correctness fences and teardown.
func run(cfg runConfig) (*result, error) {
	wl := cfg.wl
	res := &result{wl: wl, cfg: cfg}
	var sys vmapi.System
	var clients []client
	var err error
	setupW := &worker{}
	for i := 0; i < max(cfg.setups, 1); i++ {
		if sys != nil {
			if busy := teardown(sys, clients); busy != 0 {
				res.problems = append(res.problems, fmt.Sprintf("set-up %d: %d busy pages after Shutdown", i, busy))
			}
		}
		// Return freed memory to the OS first, so every set-up starts as a
		// fresh process would instead of reusing the previous machine's
		// heap.
		debug.FreeOSMemory()
		t0 := time.Now()
		sys = boot(wl)
		clients, err = wl.populate(sys, cfg.seed, setupW)
		res.setup = append(res.setup, time.Since(t0))
		if err != nil {
			sys.Shutdown()
			return nil, fmt.Errorf("%s set-up: %w", wl.name, err)
		}
	}
	res.setupFail = setupW.failed
	m := sys.Machine()
	res.costs = m.Costs

	if cfg.warmup > 0 {
		runPhase(m, wl, clients, budget{until: time.Now().Add(cfg.warmup)}, false)
	}
	if !cfg.trace {
		res.measured = runPhase(m, wl, clients, cfg.budget(cfg.measure), false)
	} else if err := tracedRun(m, wl, clients, cfg, res); err != nil {
		teardown(sys, clients)
		return nil, err
	}

	debug.FreeOSMemory()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.memMB = float64(ms.Sys-ms.HeapReleased) / (1 << 20)
	res.sinceBoot = m.Stats.Snapshot()

	for _, ph := range []*phase{res.measured, res.traced} {
		if ph == nil {
			continue
		}
		if err := wl.fence(ph.delta, res.sinceBoot); err != nil {
			res.problems = append(res.problems, err.Error())
		}
		for t, byKind := range ph.fails {
			if n := byKind[failMismatch]; n > 0 {
				res.problems = append(res.problems, fmt.Sprintf("%s: %d %s requests read back wrong data", wl.name, n, wl.reqTypes[t]))
			}
		}
	}
	if busy := teardown(sys, clients); busy != 0 {
		res.problems = append(res.problems, fmt.Sprintf("%d busy pages after Shutdown", busy))
	}
	return res, nil
}

// tracedRun splits the measured time of a traced run in two halves. The
// first runs untraced under the CPU profiler and gives the untraced request
// rate, the counters and the per-package shares; the second records spans
// and gives the per-call times and the traced request rate. It ends early
// when the span buffers fill. Spans and profile are written to cfg.outDir.
func tracedRun(m *vmapi.Machine, wl *workload, clients []client, cfg runConfig, res *result) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	profPath := filepath.Join(cfg.outDir, wl.name+".cpu.pprof")
	f, err := os.Create(profPath)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	res.measured = runPhase(m, wl, clients, cfg.budget(cfg.measure/2), false)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return err
	}
	res.traced = runPhase(m, wl, clients, cfg.budget(cfg.measure/2), true)
	if err := writeSpans(filepath.Join(cfg.outDir, wl.name+".spans.tsv"), res.traced.tracers); err != nil {
		return err
	}
	res.shares, res.memclr, err = profileShares(profPath)
	return err
}

// teardown exits the clients' processes, shuts the system down and
// returns how many frames are still marked busy, which must be none.
func teardown(sys vmapi.System, clients []client) int {
	for _, c := range clients {
		c.close()
	}
	sys.Shutdown()
	return len(sys.Machine().Mem.BusyPages())
}
