package main

import "uvm/internal/sim"

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (ms metrics) set(name string, v float64, unit string) { ms[name] = metric{v, unit} }

// hostSlices is how many equal time slices the host rate and latency
// percentiles of a measured phase are taken over.
const hostSlices = 10

// endToEnd returns what a user of the simulator sees, from the untraced
// measured phase. These are the metrics the benchmark gates on.
func endToEnd(r *result) metrics {
	ph := r.measured
	req := float64(ph.requests)
	setup := make([]float64, len(r.setup))
	for i, d := range r.setup {
		setup[i] = d.Seconds()
	}
	ms := metrics{}
	ms.set("setup_s", median(setup), "s")
	ms.set("host_req_per_s", slicedRate(ph.samples, ph.requests, ph.host, hostSlices), "1/s")
	ms.set("host_req_p50_us", slicedHostQuantile(ph.samples, ph.host, hostSlices, 0.50)/1e3, "us")
	ms.set("host_allocs_per_req", float64(ph.mallocs)/req, "count")
	ms.set("host_mem_mb", r.memMB, "MB")
	ms.set("sim_req_mean_us", float64(ph.sim)/1e3/req, "us")
	return ms
}

// endToEndInfo returns the end-to-end numbers printed beside the gated
// ones but not gated. The host p99 swings with the shared host's load by
// more than any bound could absorb on anon-cow, whose two workers fill
// both CPUs. The simulated percentiles are fixed sums of the cost table on
// the single-worker workloads (a hit costs the same every time) and include
// the other worker's charges to the shared clock on anon-cow. The error
// rate is normally zero.
func endToEndInfo(r *result) metrics {
	ph := r.measured
	ms := metrics{}
	ms.set("host_req_p99_us", slicedHostQuantile(ph.samples, ph.host, hostSlices, 0.99)/1e3, "us")
	ms.set("sim_req_p50_us", quantile(simNs(ph.samples), 0.50)/1e3, "us")
	ms.set("sim_req_p99_us", quantile(simNs(ph.samples), 0.99)/1e3, "us")
	ms.set("error_rate", float64(ph.failed)/float64(ph.requests), "ratio")
	return ms
}

// perLayer returns the per-layer metrics of a traced run: per-call times
// from the spans of its traced half; counts, simulated latency and package
// shares from its untraced, profiled half.
func perLayer(r *result) metrics {
	ph := r.measured
	d := collectSpans(r.traced.tracers)
	c := func(name string) float64 { return float64(ph.delta[name]) }
	req := float64(ph.requests)
	faults := c(sim.CtrFaults)
	ms := metrics{}

	ms.set("request.host_p99_us", slicedHostQuantile(ph.samples, ph.host, hostSlices, 0.99)/1e3, "us")
	ms.set("request.sim_p50_us", quantile(simNs(ph.samples), 0.50)/1e3, "us")
	ms.set("request.sim_p99_us", quantile(simNs(ph.samples), 0.99)/1e3, "us")

	ms.set("uvm.map.mmap_host_ns_p50", quantile(d.host[opMmap], 0.50), "ns")
	ms.set("uvm.map.munmap_host_us_p50", quantile(d.host[opMunmap], 0.50)/1e3, "us")
	ms.set("uvm.map.munmap_sim_us_mean", mean(d.sim[opMunmap])/1e3, "us")
	for _, o := range []op{opZfod, opCow, opFile, opSwapin} {
		name := "uvm.fault." + opInfo[o].name + "_host_ns_"
		ms.set(name+"p50", quantile(d.host[o], 0.50), "ns")
		ms.set(name+"p99", quantile(d.host[o], 0.99), "ns")
	}
	ms.set("uvm.fault.faults_per_req", faults/req, "count")
	ms.set("uvm.fault.lookahead_mapped_per_fault", ratio(c("uvm.lookahead.mapped"), faults), "count")

	ms.set("uvm.amap.cow_copies_per_req", c("uvm.cow.copies")/req, "count")
	ms.set("uvm.amap.anon_alloc_per_req", c("uvm.anon.alloc")/req, "count")
	ms.set("uvm.proc.fork_host_us_p50", quantile(d.host[opFork], 0.50)/1e3, "us")
	ms.set("uvm.proc.exit_host_us_p50", quantile(d.host[opExit], 0.50)/1e3, "us")

	ms.set("uvm.object.pageins_per_req", c(sim.CtrPageIns)/req, "count")
	ms.set("uvm.object.vnode_recycled_per_req", c("uvm.uobj.vnode.recycled")/req, "count")

	ms.set("uvm.pdaemon.freed_per_req", c(sim.CtrPdFreed)/req, "count")
	ms.set("uvm.pdaemon.direct_per_req", c(sim.CtrPdDirect)/req, "count")
	ms.set("uvm.pdaemon.blocked_per_kfault", 1e3*ratio(c(sim.CtrPdBlocked), faults), "count")
	ms.set("uvm.pdaemon.wait_sim_us_per_req", c(sim.CtrPdWaitNs)/1e3/req, "us")
	ms.set("uvm.pdaemon.pageout_pages_per_io", ratio(c(sim.CtrPageOuts), c(sim.CtrPdClusters)), "count")
	ms.set("uvm.pdaemon.pageout_pages_per_sim_s", ratio(c(sim.CtrPageOuts), ph.sim.Seconds()), "1/s")

	ms.set("uvm.objwb.msync_host_us_p50", quantile(d.host[opMsync], 0.50)/1e3, "us")
	ms.set("uvm.objwb.msync_sim_us_p50", quantile(d.sim[opMsync], 0.50)/1e3, "us")
	ms.set("uvm.objwb.pages_per_io", ratio(c(sim.CtrObjWbPages), c(sim.CtrObjWbClusters)), "count")
	ms.set("uvm.objwb.waits_per_req", c(sim.CtrObjWbWaits)/req, "count")

	ms.set("pmap.pv_contended_ratio", ratio(c(sim.CtrPVContended), c(sim.CtrPVAcquires)), "ratio")
	ms.set("pmap.pv_acquires_per_fault", ratio(c(sim.CtrPVAcquires), faults), "count")
	ms.set("pmap.batch_pages_per_enter", ratio(c(sim.CtrPVBatchPages), c(sim.CtrPVBatches)), "count")

	ms.set("phys.zeroed_per_req", c(sim.CtrPagesZeroed)/req, "count")
	ms.set("phys.alloc_contended_ratio", ratio(c(sim.CtrAllocContended), c(sim.CtrAllocAcquires)), "ratio")

	diskIOs := c(sim.CtrDiskReads) + c(sim.CtrDiskWrites)
	diskPages := c(sim.CtrDiskPagesRead) + c(sim.CtrDiskPagesWrite)
	ms.set("swap.ios_per_req", c(sim.CtrSwapIOs)/req, "count")
	ms.set("swap.pages_per_io", ratio(c(sim.CtrPageOuts)+c("uvm.anon.pagein"), c(sim.CtrSwapIOs)), "count")
	ms.set("disk.reads_per_req", c(sim.CtrDiskReads)/req, "count")
	ms.set("disk.writes_per_req", c(sim.CtrDiskWrites)/req, "count")
	ms.set("disk.seeks_per_io", ratio(c(sim.CtrDiskSeeks), diskIOs), "count")
	// An estimate from counts and the cost table until the clock keeps
	// a per-layer ledger: positioning, command and transfer time of every
	// I/O over the phase's simulated time.
	busy := c(sim.CtrDiskSeeks)*float64(r.costs.DiskSeek) + diskIOs*float64(r.costs.DiskOp) + diskPages*float64(r.costs.DiskPageIO)
	ms.set("disk.busy_sim_share", ratio(busy, float64(ph.sim)), "ratio")

	ms.set("vfs.open_host_ns_p50", quantile(d.host[opOpen], 0.50), "ns")
	ms.set("vfs.recycles_per_req", c("vfs.recycles")/req, "count")

	for _, g := range hostPackages {
		ms.set("host.self_share."+g, r.shares[g], "ratio")
	}
	ms.set("host.self_share.memclr", r.memclr, "ratio")
	ms.set("host.bench_self_share", selfShare(r.traced.tracers), "ratio")

	untraced := req / ph.host.Seconds()
	traced := float64(r.traced.requests) / r.traced.host.Seconds()
	ms.set("trace.host_req_per_s", traced, "1/s")
	ms.set("trace.untraced_host_req_per_s", untraced, "1/s")
	ms.set("trace.overhead_share", 1-ratio(traced, untraced), "ratio")
	ms.set("trace.requests", float64(r.traced.requests), "count")

	attempted := float64(ph.requests + r.traced.requests)
	for k := failFault; k < numFailKinds; k++ {
		n := 0.0
		for _, p := range []*phase{ph, r.traced} {
			for _, byKind := range p.attempts {
				n += float64(byKind[k])
			}
		}
		ms.set("errors."+failNames[k]+"_per_mreq", 1e6*n/attempted, "count")
	}
	return ms
}
