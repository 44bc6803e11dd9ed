package workload

import (
	"testing"

	"uvm/internal/bsdvm"
	"uvm/internal/sim"
	"uvm/internal/uvm"
	"uvm/internal/vmapi"
	"uvm/internal/vmapi/testutil"
)

// trafficTestConfig is a tiny shape that still exercises every op kind
// (file serve, anon mix, churn) and overcommits the tiny machine below.
func trafficTestConfig() TrafficConfig {
	return TrafficConfig{
		Tenants:        8,
		DatasetFiles:   64,
		FilePages:      4, // 256-page corpus vs 128-page RAM below
		ZipfS:          1.0,
		TouchPerOp:     4,
		AnonPages:      16, // 8 tenants × 16 = 128 anon pages alone
		AnonMixPercent: 25,
		ChurnEvery:     16,
		ChurnPages:     4,
		OpsPerWorker:   256,
		Seed:           1,
	}
}

// trafficTestMachine overcommits RAM with the config above. The vnode
// table must clear bsdvm's §4 object cache, which pins up to 100
// vnodes referenced (see TrafficConfig); 128 leaves room for the
// workers' concurrent opens.
func trafficTestMachine() *vmapi.Machine {
	return vmapi.NewMachine(vmapi.MachineConfig{
		RAMPages:  128,
		SwapPages: 4096,
		FSPages:   1024,
		MaxVnodes: 128,
	})
}

func TestTrafficRunsOnBothSystems(t *testing.T) {
	cfg := trafficTestConfig()
	for _, boot := range []vmapi.Booter{uvm.Boot, bsdvm.Boot} {
		sys := boot(trafficTestMachine())
		testutil.SweepOnCleanup(t, sys)
		if err := CreateTrafficDataset(sys, cfg); err != nil {
			t.Fatalf("%s: dataset: %v", sys.Name(), err)
		}
		const workers = 2
		res, err := RunTraffic(sys, cfg, workers)
		if err != nil {
			t.Fatalf("%s: %v", sys.Name(), err)
		}
		if want := int64(workers * cfg.OpsPerWorker); res.Ops != want {
			t.Errorf("%s: ops = %d, want %d", sys.Name(), res.Ops, want)
		}
		if res.Hist.Count() == 0 {
			t.Errorf("%s: histogram recorded nothing", sys.Name())
		}
		if res.Faults == 0 {
			t.Errorf("%s: no faults counted — the driver never touched memory?", sys.Name())
		}
		if res.Sim <= 0 {
			t.Errorf("%s: simulated time did not advance", sys.Name())
		}
		// The corpus is twice RAM and a quarter of ops dirty anon pages:
		// the run cannot fit without evicting.
		if got := sys.Machine().Stats.Get(sim.CtrPageOuts); got == 0 {
			t.Errorf("%s: no pageouts — the test machine is not overcommitted", sys.Name())
		}
	}
}

// TestTrafficDeterministicSim pins that two runs with the same seed and
// one worker cost the same simulated time and take the same fault
// count: the driver's randomness is all in the per-worker RNGs.
func TestTrafficDeterministicSim(t *testing.T) {
	cfg := trafficTestConfig()
	var sims [2]int64
	var faults [2]int64
	for i := range sims {
		sys := uvm.BootConfig(trafficTestMachine(), uvmDeterministicConfig())
		testutil.SweepOnCleanup(t, sys)
		if err := CreateTrafficDataset(sys, cfg); err != nil {
			t.Fatal(err)
		}
		res, err := RunTraffic(sys, cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		sims[i] = int64(res.Sim)
		faults[i] = res.Faults
	}
	if sims[0] != sims[1] || faults[0] != faults[1] {
		t.Errorf("single-worker runs diverged: sim %d vs %d, faults %d vs %d",
			sims[0], sims[1], faults[0], faults[1])
	}
}

// uvmDeterministicConfig turns off the background machinery whose
// goroutine interleaving perturbs simulated time.
func uvmDeterministicConfig() uvm.Config {
	cfg := uvm.DefaultConfig()
	cfg.InlineReclaim = true
	cfg.AsyncWriteback = false
	return cfg
}

func TestTrafficZipfSkew(t *testing.T) {
	// With s=1 over 64 files, rank 0 must be sampled far more often than
	// the median rank; with s=0 sampling is uniform. Also pins that the
	// sampler is deterministic for a fixed seed.
	const n, draws = 64, 20000
	counts := func(s float64, seed uint64) []int {
		z := newZipf(n, s)
		r := sim.NewRNG(seed)
		c := make([]int, n)
		for i := 0; i < draws; i++ {
			c[z.sample(r)]++
		}
		return c
	}
	skewed := counts(1.0, 7)
	if skewed[0] < 4*skewed[n/2] {
		t.Errorf("zipf(1.0): rank0 %d not ≫ median-rank %d", skewed[0], skewed[n/2])
	}
	uniform := counts(0, 7)
	want := draws / n
	if uniform[0] > 2*want || uniform[n-1] < want/2 {
		t.Errorf("zipf(0): not uniform: rank0 %d rankN %d want ~%d", uniform[0], uniform[n-1], want)
	}
	again := counts(1.0, 7)
	for i := range skewed {
		if skewed[i] != again[i] {
			t.Fatalf("zipf sampling not deterministic at rank %d: %d vs %d", i, skewed[i], again[i])
		}
	}
}

func TestTrafficConfigValidate(t *testing.T) {
	good := trafficTestConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	mutations := []func(*TrafficConfig){
		func(c *TrafficConfig) { c.Tenants = 0 },
		func(c *TrafficConfig) { c.DatasetFiles = -1 },
		func(c *TrafficConfig) { c.FilePages = 0 },
		func(c *TrafficConfig) { c.ZipfS = -0.5 },
		func(c *TrafficConfig) { c.TouchPerOp = 0 },
		func(c *TrafficConfig) { c.AnonPages = 0 },
		func(c *TrafficConfig) { c.AnonMixPercent = 101 },
		func(c *TrafficConfig) { c.ChurnEvery = -2 },
		func(c *TrafficConfig) { c.ChurnPages = 0 },
		func(c *TrafficConfig) { c.ChurnPages = c.AnonPages + 1 },
		func(c *TrafficConfig) { c.OpsPerWorker = 0 },
	}
	for i, mut := range mutations {
		c := good
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d: invalid config accepted: %+v", i, c)
		}
	}
	// Worker-count bounds are enforced at run time.
	sys := uvm.Boot(trafficTestMachine())
	testutil.SweepOnCleanup(t, sys)
	if _, err := RunTraffic(sys, good, 0); err == nil {
		t.Error("workers=0 accepted")
	}
	if _, err := RunTraffic(sys, good, good.Tenants+1); err == nil {
		t.Error("workers > tenants accepted")
	}
}
