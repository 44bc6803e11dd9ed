package bench

// Benchmarks for the paper's named extensions: vfork (§5.3 footnote 3),
// the hybrid amap implementation (§5.3), asynchronous pagein (§10), and
// the unified buffer cache (§10).

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"uvm/internal/param"
	"uvm/internal/phys"
	"uvm/internal/pmap"
	"uvm/internal/sim"
	"uvm/internal/uvm"
	"uvm/internal/vmapi"
)

// BenchmarkVforkVsFork shows footnote 3: vfork's cost is independent of
// the parent's resident set, fork's is linear in it.
func BenchmarkVforkVsFork(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mach := benchMachine()
		sys := uvm.Boot(mach)
		p, _ := sys.NewProcess("parent")
		const pages = 2048 // 8 MB resident
		va, _ := p.Mmap(0, pages*param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
		if err := p.TouchRange(va, pages*param.PageSize, true); err != nil {
			b.Fatal(err)
		}

		t0 := mach.Clock.Now()
		vc, _ := p.Vfork("vc")
		vforkCost := mach.Clock.Since(t0)
		vc.Exit()

		t1 := mach.Clock.Now()
		fc, _ := p.Fork("fc")
		forkCost := mach.Clock.Since(t1)
		fc.Exit()

		if i == 0 {
			b.ReportMetric(float64(vforkCost.Nanoseconds()), "sim-ns-vfork-8MB")
			b.ReportMetric(float64(forkCost.Nanoseconds()), "sim-ns-fork-8MB")
		}
	}
}

// BenchmarkAblationAsyncPagein measures the §10 future-work feature: a
// cold sequential file sweep with and without overlapped pagein.
func BenchmarkAblationAsyncPagein(b *testing.B) {
	run := func(async bool) (time.Duration, int64) {
		mach := benchMachine()
		cfg := uvm.DefaultConfig()
		cfg.AsyncPagein = async
		sys := uvm.BootConfig(mach, cfg)
		mach.FS.Create("/sweep.bin", 256*param.PageSize, nil)
		vn, _ := mach.FS.Open("/sweep.bin")
		defer vn.Unref()
		p, _ := sys.NewProcess("reader")
		va, _ := p.Mmap(0, 256*param.PageSize, param.ProtRead, vmapi.MapShared, vn, 0)
		t0 := mach.Clock.Now()
		if err := p.TouchRange(va, 256*param.PageSize, false); err != nil {
			b.Fatal(err)
		}
		return mach.Clock.Since(t0), mach.Stats.Get(sim.CtrFaults)
	}
	for i := 0; i < b.N; i++ {
		syncTime, _ := run(false)
		asyncTime, _ := run(true)
		if i == 0 {
			b.ReportMetric(syncTime.Seconds()*1e3, "sim-ms-sync")
			b.ReportMetric(asyncTime.Seconds()*1e3, "sim-ms-async")
		}
	}
}

// BenchmarkAblationHybridAmap compares first-fault cost on a large sparse
// mapping under the array and hybrid amap implementations (§5.3).
func BenchmarkAblationHybridAmap(b *testing.B) {
	run := func(kind uvm.AmapImplKind) time.Duration {
		mach := benchMachine()
		cfg := uvm.DefaultConfig()
		cfg.AmapImpl = kind
		sys := uvm.BootConfig(mach, cfg)
		p, _ := sys.NewProcess("sparse")
		// 64 MB sparse mapping, three pages touched.
		va, _ := p.Mmap(0, 16384*param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
		t0 := mach.Clock.Now()
		p.Access(va, true)
		p.Access(va+8000*param.PageSize, true)
		p.Access(va+16383*param.PageSize, true)
		return mach.Clock.Since(t0)
	}
	for i := 0; i < b.N; i++ {
		arr := run(uvm.AmapArray)
		hyb := run(uvm.AmapHybrid)
		if i == 0 {
			b.ReportMetric(float64(arr.Nanoseconds()), "sim-ns-array")
			b.ReportMetric(float64(hyb.Nanoseconds()), "sim-ns-hybrid")
		}
	}
}

// BenchmarkPVContention measures the sharded pmap reverse map against
// the single-mutex layout it replaced: GOMAXPROCS workers, each with its
// own pmap (its own simulated address space, as in parallel faults
// across processes), hammer Enter with rotating pages, so every
// operation removes one pv entry and adds another. With one bucket all
// workers serialise on one mutex; with 64 the bucket locks spread by
// frame number and the contended share collapses. The pv-contended-%
// metric reports it per configuration. Set UVM_PV_SHARDS to benchmark a
// specific shard count instead of the default pair.
func BenchmarkPVContention(b *testing.B) {
	configs := []struct {
		name   string
		shards int
	}{{"single-mutex", 1}, {"sharded-64", 64}}
	if env := os.Getenv("UVM_PV_SHARDS"); env != "" {
		n, err := strconv.Atoi(env)
		if err != nil {
			b.Fatalf("UVM_PV_SHARDS=%q: %v", env, err)
		}
		configs = configs[:0]
		configs = append(configs, struct {
			name   string
			shards int
		}{fmt.Sprintf("env-%d", n), n})
	}
	for _, cfg := range configs {
		b.Run(cfg.name, func(b *testing.B) {
			const workerPages = 128
			clock := sim.NewClock()
			costs := sim.DefaultCosts()
			stats := sim.NewStats()
			// RAM sized from the worker count RunParallel will spawn, so
			// many-core hosts do not run the free list dry.
			ramPages := runtime.GOMAXPROCS(0)*workerPages + 1024
			mem := phys.NewMem(clock, costs, stats, ramPages)
			mmu := pmap.NewMMU(clock, costs, stats, ramPages)
			mmu.SetPVShards(cfg.shards)

			var workerID atomic.Int32
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				id := workerID.Add(1)
				pm := mmu.NewPmap(fmt.Sprintf("w%d", id))
				pages := make([]*phys.Page, workerPages)
				for i := range pages {
					pg, err := mem.Alloc(nil, 0, false)
					if err != nil {
						b.Error(err)
						return
					}
					pages[i] = pg
				}
				base := param.MmapHintBase + param.VAddr(id)<<26
				i := 0
				for pb.Next() {
					// Same VA, different page each time: every Enter is a
					// replacement — one pv removal, one pv insertion.
					pm.Enter(base+param.VAddr(i%8)*param.PageSize,
						pages[i%workerPages], param.ProtRW, false)
					i++
				}
				pm.RemoveAll()
			})
			b.StopTimer()
			if acq := stats.Get(sim.CtrPVAcquires); acq > 0 {
				b.ReportMetric(100*float64(stats.Get(sim.CtrPVContended))/float64(acq), "pv-contended-%")
			}
		})
	}
}

// BenchmarkUBCReadVsMmap compares the two coherent paths to the same
// cached file data.
func BenchmarkUBCReadVsMmap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mach := benchMachine()
		sys := uvm.Boot(mach).(*uvm.System)
		mach.FS.Create("/ubc.bin", 64*param.PageSize, nil)
		vn, _ := mach.FS.Open("/ubc.bin")
		p, _ := sys.NewProcess("reader")

		// Warm through read(2).
		buf := make([]byte, 64*param.PageSize)
		t0 := mach.Clock.Now()
		if _, err := sys.FileRead(vn, 0, buf); err != nil {
			b.Fatal(err)
		}
		readCost := mach.Clock.Since(t0)

		// Mapping the warm file is nearly free.
		t1 := mach.Clock.Now()
		va, _ := p.Mmap(0, 64*param.PageSize, param.ProtRead, vmapi.MapShared, vn, 0)
		if err := p.TouchRange(va, 64*param.PageSize, false); err != nil {
			b.Fatal(err)
		}
		mmapCost := mach.Clock.Since(t1)
		vn.Unref()
		if i == 0 {
			b.ReportMetric(float64(readCost.Microseconds()), "sim-us-read2-cold")
			b.ReportMetric(float64(mmapCost.Microseconds()), "sim-us-mmap-warm")
		}
	}
}
