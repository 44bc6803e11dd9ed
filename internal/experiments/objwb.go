package experiments

import (
	"fmt"
	"io"
	"time"

	"uvm/internal/param"
	"uvm/internal/sim"
	"uvm/internal/uvm"
	"uvm/internal/vmapi"
)

// ObjWB measures object writeback (msync) bandwidth, contrasting the
// stages of the object writeback pipeline on both backends:
//
//   - sync: the baseline — Msync puts one page per I/O, synchronously,
//     in ascending index order; every page pays the disk's positioning
//     and transfer time on the caller's clock.
//   - async-w4: the writeback engine with clustering disabled (1-page
//     clusters through a 4-deep in-flight window): the same I/Os, but
//     overlapped — the caller pays only collection and the in-memory
//     copies, and waits for the completions.
//   - async-cluster: the full pipeline — dirty pages leave as
//     contiguous-index clusters (up to 16 pages per I/O) through the
//     window, so both the per-page positioning cost and the I/O count
//     collapse.
//
// Each configuration runs the same workload on each backend: dirty every
// page of a region (vnode: a shared file mapping flushed to the file;
// aobj: a shared anonymous mapping flushed to swap), Msync, repeat. The
// simulated bandwidth (pages written back per simulated second) isolates
// the modelling claim — async overlap and clustering sustain strictly
// more writeback per simulated second; wall bandwidth shows the host
// effect.

// ObjWBPoint is one (configuration, backend) measurement.
type ObjWBPoint struct {
	Config   string
	Backend  string // "vnode" or "aobj"
	Msyncs   int
	Pageouts int64
	Clusters int64 // writeback cluster I/Os (async configs)
	Wall     time.Duration
	Sim      time.Duration
	DiskBusy time.Duration // device-busy time of the overlapped writes
	WallBW   float64       // pageouts per wall second
	SimBW    float64       // pageouts per simulated second
}

const (
	// objWBRegionPages is the mapped region each round dirties and
	// flushes (1 MB).
	objWBRegionPages = 256
	// objWBRAMPages keeps the whole region resident: the experiment
	// measures writeback, not reclaim.
	objWBRAMPages = 2048
)

// objWBConfigs returns the pipeline stages the experiment contrasts.
func objWBConfigs() []pipelineConfig {
	return []pipelineConfig{
		{"sync", func(c *uvm.Config) {}},
		{"async-w4", func(c *uvm.Config) {
			c.AsyncWriteback = true
			c.WritebackCluster = 1
		}},
		{"async-cluster", func(c *uvm.Config) {
			c.AsyncWriteback = true
			c.WritebackCluster = 16
		}},
	}
}

// ObjWBRun measures the objWBConfigs stage cfgName on one backend and a
// named machine profile: rounds of dirty-everything then Msync over a
// region that stays resident. Returns the measurement plus the number
// of Busy pages leaked (swept after Shutdown; always 0 unless a
// writeback error path lost a claim).
func ObjWBRun(prof, cfgName, backend string, rounds int) (ObjWBPoint, int, error) {
	cfg := uvm.DefaultConfig()
	if err := tunePipeline(&cfg, objWBConfigs(), cfgName); err != nil {
		return ObjWBPoint{}, 0, err
	}
	mach := vmapi.NewMachine(vmapi.MachineConfig{
		RAMPages:  objWBRAMPages,
		SwapPages: 65536,
		FSPages:   4096,
		MaxVnodes: 16,
		Profile:   prof,
	})
	sys := uvm.BootConfig(mach, cfg)
	defer sys.Shutdown()

	p, err := sys.NewProcess("wb")
	if err != nil {
		return ObjWBPoint{}, 0, err
	}
	defer p.Exit()

	var va param.VAddr
	switch backend {
	case "vnode":
		if err := mach.FS.Create("/objwb", objWBRegionPages*param.PageSize, nil); err != nil {
			return ObjWBPoint{}, 0, err
		}
		vn, err := mach.FS.Open("/objwb")
		if err != nil {
			return ObjWBPoint{}, 0, err
		}
		defer vn.Unref()
		va, err = p.Mmap(0, objWBRegionPages*param.PageSize, param.ProtRW, vmapi.MapShared, vn, 0)
		if err != nil {
			return ObjWBPoint{}, 0, err
		}
	case "aobj":
		va, err = p.Mmap(0, objWBRegionPages*param.PageSize, param.ProtRW,
			vmapi.MapAnon|vmapi.MapShared, nil, 0)
		if err != nil {
			return ObjWBPoint{}, 0, err
		}
	default:
		return ObjWBPoint{}, 0, fmt.Errorf("objwb: unknown backend %q", backend)
	}

	//uvm:wallclock real elapsed time is the reported host-throughput metric
	wallStart := time.Now()
	simStart := mach.Clock.Now()
	for r := 0; r < rounds; r++ {
		for i := 0; i < objWBRegionPages; i++ {
			if err := p.Access(va+param.VAddr(i)*param.PageSize, true); err != nil {
				return ObjWBPoint{}, 0, err
			}
		}
		if err := p.Msync(va, objWBRegionPages*param.PageSize); err != nil {
			return ObjWBPoint{}, 0, err
		}
	}
	//uvm:wallclock real elapsed time is the reported host-throughput metric
	wall := time.Since(wallStart)
	simT := mach.Clock.Now() - simStart
	sys.Shutdown()
	leaked := len(mach.Mem.BusyPages())

	pt := ObjWBPoint{
		Config:   cfgName,
		Backend:  backend,
		Msyncs:   rounds,
		Pageouts: mach.Stats.Get(sim.CtrPageOuts),
		Clusters: mach.Stats.Get(sim.CtrObjWbClusters),
		Wall:     wall,
		Sim:      simT,
		DiskBusy: time.Duration(mach.Stats.Get(sim.CtrDiskDeferredNs)),
	}
	if s := wall.Seconds(); s > 0 {
		pt.WallBW = float64(pt.Pageouts) / s
	}
	if s := simT.Seconds(); s > 0 {
		pt.SimBW = float64(pt.Pageouts) / s
	}
	return pt, leaked, nil
}

// ObjWB runs every pipeline configuration on both backends.
func ObjWB(rounds int) ([]ObjWBPoint, error) {
	var points []ObjWBPoint
	for _, backend := range []string{"vnode", "aobj"} {
		for _, c := range objWBConfigs() {
			pt, _, err := ObjWBRun(profile, c.Name, backend, rounds)
			if err != nil {
				return nil, err
			}
			points = append(points, pt)
		}
	}
	return points, nil
}

// ReportObjWB renders the writeback bandwidth table.
func ReportObjWB(w io.Writer, rounds int) error {
	header(w, "ObjWB: object writeback (msync) bandwidth, sync vs async vs clustered")
	fmt.Fprintf(w, "%d rounds x %d-page region per config; vnode pages flush to the file, aobj pages to swap\n",
		rounds, objWBRegionPages)
	points, err := ObjWB(rounds)
	if err != nil {
		return err
	}
	for _, pt := range points {
		fmt.Fprintf(w, "%-6s %-14s %7d pageouts  sim %10.0f pg/s  wall %10.0f pg/s  disk-busy %9s  (%d wb clusters)\n",
			pt.Backend, pt.Config, pt.Pageouts, pt.SimBW, pt.WallBW, pt.DiskBusy, pt.Clusters)
	}
	fmt.Fprintln(w, "(sync puts one page per I/O on the caller's clock; async-w4 overlaps the same")
	fmt.Fprintln(w, " I/Os in a bounded window, so simulated bandwidth jumps; async-cluster also")
	fmt.Fprintln(w, " merges contiguous pages into one command, so the device-busy time of the")
	fmt.Fprintln(w, " overlapped writes collapses too.)")
	return nil
}
