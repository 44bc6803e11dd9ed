package main

import (
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"testing"
	"time"

	"uvm/internal/sim"
	"uvm/internal/vmapi"
)

// fixedRun runs a workload for a fixed number of requests per worker, with
// one set-up and no warm-up, so that the work done depends on the seed only.
func fixedRun(t *testing.T, wl *workload, seed uint64, requests int64) *result {
	t.Helper()
	res, err := run(runConfig{wl: wl, seed: seed, requests: requests, setups: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.problems) > 0 {
		t.Fatalf("%s: checks failed: %v", wl.name, res.problems)
	}
	return res
}

// anon-cow does no reclaim and no I/O, so at a fixed seed and request
// count its simulated time and operation counts repeat exactly, whatever
// the two workers' interleaving. The pv and allocator contention counts
// depend on host scheduling and are left out.
func TestAnonCowDeterministic(t *testing.T) {
	counters := []string{
		sim.CtrFaults, sim.CtrFaultsRead, sim.CtrFaultsWrite,
		sim.CtrPagesZeroed, sim.CtrPagesCopied, sim.CtrMapEntriesTotal,
		"uvm.mapentry.alloc", "uvm.anon.alloc", "uvm.amap.alloc", "uvm.cow.copies", "uvm.forks",
	}
	a := fixedRun(t, anonCow, 7, 40)
	b := fixedRun(t, anonCow, 7, 40)
	if a.measured.requests != 80 || a.measured.failed != 0 || b.measured.failed != 0 {
		t.Fatalf("requests %d, failed %d and %d; want 80 and no failures",
			a.measured.requests, a.measured.failed, b.measured.failed)
	}
	if a.measured.sim != b.measured.sim {
		t.Errorf("simulated time %v then %v; want identical", a.measured.sim, b.measured.sim)
	}
	for _, k := range counters {
		if a.measured.delta[k] != b.measured.delta[k] {
			t.Errorf("%s: %d then %d; want identical", k, a.measured.delta[k], b.measured.delta[k])
		}
	}
	if a.measured.delta[sim.CtrPagesZeroed] != 80*cowPages {
		t.Errorf("pages zeroed = %d, want %d", a.measured.delta[sim.CtrPagesZeroed], 80*cowPages)
	}
	c := fixedRun(t, anonCow, 8, 40)
	if c.measured.sim == a.measured.sim {
		t.Errorf("seeds 7 and 8 gave the same simulated time %v; the seed should change the inputs", a.measured.sim)
	}
}

// file-serve and anon-swap carry the asynchronous pagedaemon, whose
// rounds race the worker, so their simulated time may differ between
// runs at one seed. The test reports the spread.
func TestAsyncWorkloadSpread(t *testing.T) {
	if testing.Short() {
		t.Skip("runs each workload three times")
	}
	for _, tc := range []struct {
		wl       *workload
		requests int64
	}{{fileServe, 20000}, {anonSwap, 50000}} {
		var means []float64
		for i := 0; i < 3; i++ {
			res := fixedRun(t, tc.wl, 7, tc.requests)
			means = append(means, float64(res.measured.sim)/1e3/float64(res.measured.requests))
		}
		slices.Sort(means)
		t.Logf("%s: sim_req_mean_us over 3 runs at seed 7: %.4f .. %.4f (spread %.4f%%)",
			tc.wl.name, means[0], means[2], 100*(means[2]-means[0])/means[1])
	}
}

func TestAccessRetriesAndCountsFailedAttempts(t *testing.T) {
	w := &worker{}
	calls := 0
	flaky := func() error {
		if calls++; calls <= 2 {
			return vmapi.ErrFault
		}
		return nil
	}
	if k := w.access(flaky); k != failNone || w.failed[failFault] != 2 {
		t.Errorf("flaky call: got %s with %d failed attempts, want none with 2", failNames[k], w.failed[failFault])
	}
	w = &worker{}
	if k := w.access(func() error { return vmapi.ErrDeadlock }); k != failDeadlock || w.failed[failDeadlock] != maxAttempts {
		t.Errorf("failing call: got %s with %d failed attempts, want deadlock with %d",
			failNames[k], w.failed[failDeadlock], maxAttempts)
	}
}

func TestFencesRejectIdleLayers(t *testing.T) {
	empty := map[string]int64{}
	if err := fileServe.fence(empty, empty); err == nil {
		t.Error("file-serve fence accepted a phase without pageins or recycles")
	}
	if err := anonSwap.fence(empty, empty); err == nil {
		t.Error("anon-swap fence accepted a phase without pageouts")
	}
	if err := anonCow.fence(empty, map[string]int64{sim.CtrDiskWrites: 1}); err == nil {
		t.Error("anon-cow fence accepted disk I/O")
	}
	if err := anonCow.fence(empty, empty); err != nil {
		t.Errorf("anon-cow fence rejected an idle pagedaemon: %v", err)
	}
}

func TestSamplerKeepsUniformSubsample(t *testing.T) {
	s := newSampler(8)
	for i := uint32(0); i < 100; i++ {
		s.add(sample{host: i})
	}
	// 100 requests into 8 slots: the stride doubles to 16, keeping
	// requests 0, 16, 32, ..., 96.
	want := []sample{{host: 0}, {host: 16}, {host: 32}, {host: 48}, {host: 64}, {host: 80}, {host: 96}}
	if !slices.Equal(s.samples, want) {
		t.Errorf("kept %v, want %v", s.samples, want)
	}
}

func TestSlicedHostQuantileIgnoresOneSlowSlice(t *testing.T) {
	var xs []sample
	var all []uint32
	for ms := uint32(0); ms < 1000; ms++ {
		host := uint32(100)
		if ms < 100 { // the first tenth of the phase stalls
			host = 10000
		}
		xs = append(xs, sample{host: host, doneMs: ms})
		all = append(all, host)
	}
	if got := slicedHostQuantile(xs, time.Second, 10, 0.99); got != 100 {
		t.Errorf("sliced p99 = %v, want 100", got)
	}
	if got := quantile(all, 0.99); got != 10000 {
		t.Errorf("whole-phase p99 = %v, want 10000", got)
	}
}

func TestSlicedRateIgnoresOneStalledSlice(t *testing.T) {
	var xs []sample
	for ms := uint32(100); ms < 1000; ms++ { // nothing ends in the first tenth
		xs = append(xs, sample{doneMs: ms})
	}
	if got := slicedRate(xs, int64(len(xs)), time.Second, 10); got != 1000 {
		t.Errorf("sliced rate = %v/s, want 1000/s", got)
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := quantile(xs, 0.5); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
	if got := quantile([]int64{}, 0.99); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
}

func TestZipfFavoursLowRanks(t *testing.T) {
	z := newZipf(100, 1.0)
	r := rand.New(rand.NewPCG(1, 2))
	counts := make([]int, 100)
	for i := 0; i < 100000; i++ {
		counts[z.next(r)]++
	}
	// P(0)/P(1) = 2 for s = 1.
	if ratio := float64(counts[0]) / float64(counts[1]); ratio < 1.8 || ratio > 2.2 {
		t.Errorf("rank 0 drawn %.2fx as often as rank 1, want about 2", ratio)
	}
}

func TestPkgGroup(t *testing.T) {
	for fn, want := range map[string]string{
		"uvm/internal/uvm.(*Process).copyBytes":  "uvm",
		"uvm/internal/pmap.(*Pmap).Enter":        "pmap",
		"uvm/internal/phys.(*Mem).Zero":          "phys",
		"runtime.memclrNoHeapPointers":           "runtime",
		"internal/runtime/atomic.(*Uint32).Load": "runtime",
		"sync.(*Mutex).Lock":                     "other",
		"main.(*cowClient).request":              "other",
		"uvm/internal/vmapi.NewMachine":          "other",
	} {
		if got := pkgGroup(fn); got != want {
			t.Errorf("pkgGroup(%q) = %q, want %q", fn, got, want)
		}
	}
}

// The profile decoder reads what runtime/pprof writes: shares of a busy
// loop's profile are well-formed and sum to one.
func TestProfileSharesDecodesCPUProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	x := uint64(1)
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		x = mix(x, x, x)
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	shares, memclr, err := profileShares(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, g := range hostPackages {
		if shares[g] < 0 || shares[g] > 1 {
			t.Errorf("share %s = %v", g, shares[g])
		}
		sum += shares[g]
	}
	if sum != 0 && (sum < 0.999 || sum > 1.001) {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	if memclr < 0 || memclr > shares["runtime"]+1e-9 {
		t.Errorf("memclr share %v outside [0, runtime share %v]", memclr, shares["runtime"])
	}
	if sum == 0 {
		t.Logf("profile held no samples (loop result %d)", x)
	}
}
