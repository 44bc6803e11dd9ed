package experiments

import (
	"runtime"
	"testing"

	"uvm/internal/bsdvm"
	"uvm/internal/uvm"
	"uvm/internal/vmapi"
)

// TestScalingUVMFaultThroughput runs the parallel-fault experiment on
// UVM and checks that throughput improves with goroutine count. True
// wall-clock scaling needs real cores: on a single-CPU host goroutines
// time-slice and no speedup is physically possible, so the ratio
// assertion only applies when GOMAXPROCS allows parallelism. The
// experiment itself (and its internal consistency checks) runs
// everywhere.
func TestScalingUVMFaultThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling experiment skipped in -short mode")
	}
	// Wall-clock measurement on a shared machine is noisy: take the best
	// of a few attempts before judging the ratio.
	var single, parallel ScalingPoint
	ratio := 0.0
	for attempt := 0; attempt < 3 && ratio < 2.0; attempt++ {
		points, err := Scaling("uvm", uvm.Boot, []int{1, 8})
		if err != nil {
			t.Fatal(err)
		}
		single, parallel = points[0], points[1]
		if single.Faults != 1*scalingFaultsPerWorker || parallel.Faults != 8*scalingFaultsPerWorker {
			t.Fatalf("fault accounting wrong: %+v %+v", single, parallel)
		}
		if r := parallel.PerSecond / single.PerSecond; r > ratio {
			ratio = r
		}
	}
	t.Logf("uvm fault throughput: 1 goroutine %.0f/s, 8 goroutines %.0f/s (best %.2fx, GOMAXPROCS=%d)",
		single.PerSecond, parallel.PerSecond, ratio, runtime.GOMAXPROCS(0))

	if runtime.GOMAXPROCS(0) < 4 {
		t.Skipf("GOMAXPROCS=%d: wall-clock scaling not observable without cores", runtime.GOMAXPROCS(0))
	}
	if ratio < 2.0 {
		t.Errorf("uvm fault throughput at 8 goroutines only %.2fx of 1 goroutine, want >= 2x", ratio)
	}
}

// TestScalingPVContention checks that the sharded pv table removes the
// reverse-map serialisation point: at 8 goroutines, the contended share
// of pv bucket acquisitions stays small, and is no worse than what the
// same workload suffers on the single-mutex layout
// (pmap.MMU.SetPVShards(1) — the pre-sharding arrangement, which the
// contrast booter restores). Contention needs real parallelism to exist
// at all, so the comparative assertion only applies with enough cores.
func TestScalingPVContention(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling experiment skipped in -short mode")
	}
	singleMutexBoot := func(m *vmapi.Machine) vmapi.System {
		m.MMU.SetPVShards(1)
		return uvm.Boot(m)
	}
	sharded, err := Scaling("uvm", uvm.Boot, []int{8})
	if err != nil {
		t.Fatal(err)
	}
	unsharded, err := Scaling("uvm-pv1", singleMutexBoot, []int{8})
	if err != nil {
		t.Fatal(err)
	}
	sp, up := sharded[0], unsharded[0]
	if sp.PVAcquires == 0 || up.PVAcquires == 0 {
		t.Fatalf("pv acquisition counters missing: sharded %+v single %+v", sp, up)
	}
	t.Logf("pv contention at 8 goroutines: sharded %.3f%% (%d/%d), single-mutex %.3f%% (%d/%d)",
		100*sp.PVContentionRatio(), sp.PVContended, sp.PVAcquires,
		100*up.PVContentionRatio(), up.PVContended, up.PVAcquires)
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skipf("GOMAXPROCS=%d: lock contention not observable without cores", runtime.GOMAXPROCS(0))
	}
	if r := sp.PVContentionRatio(); r > 0.10 {
		t.Errorf("sharded pv table contended on %.1f%% of acquisitions, want <= 10%%", 100*r)
	}
	if sp.PVContentionRatio() > up.PVContentionRatio() {
		t.Errorf("sharded pv contention (%.3f%%) exceeds single-mutex contention (%.3f%%)",
			100*sp.PVContentionRatio(), 100*up.PVContentionRatio())
	}
}

// TestScalingRunsOnBothSystems smoke-tests the experiment driver end to
// end at small scale: both systems complete the workload and report
// plausible numbers.
func TestScalingRunsOnBothSystems(t *testing.T) {
	for _, nb := range []NamedBooter{{"bsdvm", bsdvm.Boot}, {"uvm", uvm.Boot}} {
		points, err := Scaling(nb.Name, nb.Boot, []int{1, 2})
		if err != nil {
			t.Fatalf("%s: %v", nb.Name, err)
		}
		for _, pt := range points {
			if pt.PerSecond <= 0 || pt.Wall <= 0 {
				t.Fatalf("%s: degenerate point %+v", nb.Name, pt)
			}
		}
	}
}
