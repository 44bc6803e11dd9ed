package experiments

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"uvm/internal/param"
	"uvm/internal/sim"
	"uvm/internal/vmapi"
)

// Scaling measures multicore fault throughput — the experiment the paper
// could not run (UVM shipped under the pre-SMP BSD big lock) but whose
// locking structure this reproduction extends to exploit. N goroutines,
// each with its own process and its own anonymous region, take write
// faults as fast as they can; the metric is wall-clock faults per second
// across the whole machine.
//
// Under internal/bsdvm every fault serialises on the system big lock, so
// adding goroutines cannot help. Under internal/uvm the fault path takes
// only its own process' map lock (shared), per-amap/anon locks and
// sharded page-queue locks, so disjoint processes fault in parallel and
// throughput rises with goroutine count — when the host actually has
// cores to run them (wall-clock scaling is bounded by GOMAXPROCS).

// ScalingPoint is one (goroutines, throughput) sample for one system.
type ScalingPoint struct {
	System     string
	Goroutines int
	Faults     int64         // faults taken during the measurement
	Wall       time.Duration // wall-clock elapsed
	PerSecond  float64       // Faults / Wall

	// pv-lock traffic on the pmap reverse map during the run: how often a
	// bucket lock was taken, and how often the taker had to wait. With
	// the sharded pv table the contended share stays near zero as
	// goroutines are added; a single-mutex table (pmap.MMU.SetPVShards(1))
	// is where the contention shows.
	PVAcquires  int64
	PVContended int64
}

// PVContentionRatio returns the contended share of pv bucket lock
// acquisitions (0 when the run took none).
func (p ScalingPoint) PVContentionRatio() float64 {
	if p.PVAcquires == 0 {
		return 0
	}
	return float64(p.PVContended) / float64(p.PVAcquires)
}

// scalingFaultsPerWorker bounds each worker's share of work so the
// experiment finishes quickly even at one goroutine.
const scalingFaultsPerWorker = 3000

// scalingRegionPages is each worker's mapping size; workers munmap and
// remap the region once it is fully touched, so every Access is a real
// fault, never a pmap fast-path hit.
const scalingRegionPages = 64

// Scaling runs the fault-throughput experiment for each goroutine count
// on the given booter. Every run boots a fresh machine so clock and
// queue state never leak between points.
func Scaling(name string, boot vmapi.Booter, workers []int) ([]ScalingPoint, error) {
	points := make([]ScalingPoint, 0, len(workers))
	for _, n := range workers {
		pt, err := scalingRun(name, boot, n)
		if err != nil {
			return nil, err
		}
		points = append(points, pt)
	}
	return points, nil
}

func scalingRun(name string, boot vmapi.Booter, workers int) (ScalingPoint, error) {
	// RAM sized so all workers fault without ever waking the pagedaemon:
	// the experiment isolates fault-path locking, not reclaim.
	mach := vmapi.NewMachine(vmapi.MachineConfig{
		RAMPages:  workers*scalingRegionPages*4 + 4096,
		SwapPages: 16384,
		FSPages:   1024,
		MaxVnodes: 16,
		Profile:   profile,
	})
	sys := boot(mach)

	procs := make([]vmapi.Process, workers)
	for i := range procs {
		p, err := sys.NewProcess(fmt.Sprintf("scale%d", i))
		if err != nil {
			return ScalingPoint{}, err
		}
		procs[i] = p
	}

	var (
		wg       sync.WaitGroup
		firstErr error
		errOnce  sync.Once
	)
	//uvm:wallclock real elapsed time is the reported host-throughput metric
	start := time.Now()
	for i := range procs {
		wg.Add(1)
		go func(p vmapi.Process) {
			defer wg.Done()
			const length = scalingRegionPages * param.PageSize
			faults := 0
			for faults < scalingFaultsPerWorker {
				va, err := p.Mmap(0, length, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
				if err != nil {
					errOnce.Do(func() { firstErr = err })
					return
				}
				for pg := 0; pg < scalingRegionPages && faults < scalingFaultsPerWorker; pg++ {
					if err := p.Access(va+param.VAddr(pg)*param.PageSize, true); err != nil {
						errOnce.Do(func() { firstErr = err })
						return
					}
					faults++
				}
				if err := p.Munmap(va, length); err != nil {
					errOnce.Do(func() { firstErr = err })
					return
				}
			}
		}(procs[i])
	}
	wg.Wait()
	//uvm:wallclock real elapsed time is the reported host-throughput metric
	wall := time.Since(start)
	if firstErr != nil {
		sys.Shutdown()
		return ScalingPoint{}, firstErr
	}
	for _, p := range procs {
		p.Exit()
	}
	sys.Shutdown()

	total := int64(workers) * scalingFaultsPerWorker
	return ScalingPoint{
		System:      name,
		Goroutines:  workers,
		Faults:      total,
		Wall:        wall,
		PerSecond:   float64(total) / wall.Seconds(),
		PVAcquires:  mach.Stats.Get(sim.CtrPVAcquires),
		PVContended: mach.Stats.Get(sim.CtrPVContended),
	}, nil
}

// ReportScaling renders the experiment for both systems at 1/2/4/8
// goroutines.
func ReportScaling(w io.Writer, boots []NamedBooter) error {
	header(w, "Scaling: parallel fault throughput (wall clock)")
	fmt.Fprintf(w, "GOMAXPROCS=%d NumCPU=%d\n", runtime.GOMAXPROCS(0), runtime.NumCPU())
	workers := []int{1, 2, 4, 8}
	for _, nb := range boots {
		points, err := Scaling(nb.Name, nb.Boot, workers)
		if err != nil {
			return err
		}
		base := points[0].PerSecond
		for _, pt := range points {
			fmt.Fprintf(w, "%-6s %2d goroutines: %9.0f faults/s  (%.2fx)  pv-contention %5.2f%% (%d/%d)\n",
				pt.System, pt.Goroutines, pt.PerSecond, pt.PerSecond/base,
				100*pt.PVContentionRatio(), pt.PVContended, pt.PVAcquires)
		}
	}
	return nil
}

// NamedBooter pairs a booter with its report name.
type NamedBooter struct {
	Name string
	Boot vmapi.Booter
}
