package uvm

import (
	"testing"

	"uvm/internal/sim"
)

// TestCachedCounterHandlesFeedStats guards the wiring between the
// cached sim.Counter handles resolved at boot and the string-named
// stats the reports read: a typo in one of the names at the BootConfig
// resolution site would silently split a counter into two cells, with
// the hot paths bumping one and the reports reading the other. The
// handles of phys, disk and swap are private to those packages, so their
// paths are driven once each and the named stats checked instead.
func TestCachedCounterHandlesFeedStats(t *testing.T) {
	s, m := bootTest(t, 256)
	defer s.Shutdown()

	handles := []struct {
		name string
		ctr  sim.Counter
	}{
		{sim.CtrFaults, s.ctrFaults},
		{sim.CtrFaultsRead, s.ctrFaultsRead},
		{sim.CtrFaultsWrite, s.ctrFaultsWrite},
		{"uvm.anon.alloc", s.ctrAnonAlloc},
		{"uvm.anon.live", s.ctrAnonLive},
		{"uvm.amap.alloc", s.ctrAmapAlloc},
		{"uvm.amap.live", s.ctrAmapLive},
		{"uvm.cow.copies", s.ctrCowCopies},
		{"uvm.lookahead.mapped", s.ctrLookaheadMapped},
		{"uvm.mapentry.alloc", s.ctrEntryAlloc},
		{"uvm.mapentry.live", s.ctrEntryLive},
		{"uvm.map.lockheld_ns", s.ctrMapLockHeld},
		{sim.CtrPageIns, s.ctrPageIns},
		{sim.CtrPageOuts, s.ctrPageOuts},
		{"uvm.asyncpagein.pages", s.ctrAsyncPageinPgs},
		{sim.CtrObjWbClusters, s.ctrObjWbClusters},
		{sim.CtrObjWbPages, s.ctrObjWbPages},
		{sim.CtrPdRounds, s.ctrPdRounds},
		{sim.CtrPdDirect, s.ctrPdDirect},
		{sim.CtrPdWorkerRounds, s.ctrPdWorkerRounds},
		{"uvm.ubc.reads", s.ctrUbcReads},
		{"uvm.ubc.writes", s.ctrUbcWrites},
	}
	for _, h := range handles {
		before := m.Stats.Get(h.name)
		h.ctr.Inc()
		if got := m.Stats.Get(h.name); got != before+1 {
			t.Errorf("counter handle for %q: stat moved %d -> %d, want +1", h.name, before, got)
		}
	}

	src, err := m.Mem.Alloc(nil, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := m.Mem.Alloc(nil, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Mem.Free(src)
	defer m.Mem.Free(dst)
	slot, err := m.Swap.AllocContig(2)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Swap.FreeRange(slot, 2)
	pair := [][]byte{src.Data, dst.Data}
	deferredNs := int64(m.Costs.DiskOp + m.Costs.DiskSeek + m.Costs.DiskPageIO)
	type delta map[string]int64
	// Every swap command below starts where the head is not, so each seeks.
	paths := []struct {
		what string
		run  func() error
		want delta
	}{
		{"Mem.Zero", func() error { m.Mem.Zero(src); return nil }, delta{sim.CtrPagesZeroed: 1}},
		{"Mem.CopyData", func() error { m.Mem.CopyData(dst, src); return nil }, delta{sim.CtrPagesCopied: 1}},
		{"Swap.WriteSlot", func() error { return m.Swap.WriteSlot(slot, src.Data) },
			delta{sim.CtrSwapIOs: 1, sim.CtrDiskWrites: 1, sim.CtrDiskPagesWrite: 1, sim.CtrDiskSeeks: 1}},
		{"Swap.ReadSlot", func() error { return m.Swap.ReadSlot(slot, dst.Data) },
			delta{sim.CtrSwapIOs: 1, sim.CtrDiskReads: 1, sim.CtrDiskPagesRead: 1, sim.CtrDiskSeeks: 1}},
		{"Swap.WriteCluster", func() error { return m.Swap.WriteCluster(slot, pair) },
			delta{sim.CtrSwapIOs: 1, sim.CtrDiskWrites: 1, sim.CtrDiskPagesWrite: 2, sim.CtrDiskSeeks: 1}},
		{"Swap.ReadCluster", func() error { return m.Swap.ReadCluster(slot, pair) },
			delta{sim.CtrSwapIOs: 1, sim.CtrDiskReads: 1, sim.CtrDiskPagesRead: 2, sim.CtrDiskSeeks: 1}},
		{"Disk.WritePagesDeferred", func() error { return m.FSDisk.WritePagesDeferred(0, pair[:1]) },
			delta{sim.CtrDiskWritesDeferred: 1, sim.CtrDiskDeferredNs: deferredNs}},
		{"Disk.ReadPagesDeferred", func() error { return m.FSDisk.ReadPagesDeferred(0, pair[:1]) },
			delta{sim.CtrDiskReadsDeferred: 1, sim.CtrDiskDeferredNs: deferredNs}},
	}
	for _, p := range paths {
		before := m.Stats.Snapshot()
		if err := p.run(); err != nil {
			t.Fatalf("%s: %v", p.what, err)
		}
		for name, want := range p.want {
			if got := m.Stats.Get(name) - before[name]; got != want {
				t.Errorf("%s: %q moved by %d, want %d", p.what, name, got, want)
			}
		}
	}
}
