package phys

import (
	"testing"

	"uvm/internal/param"
)

// TestAllocAfterFreeReturnsTheFrameJustFreed checks hot-first reuse:
// with one freed frame at the head of every shard, a round of
// allocations that visits each shard once hands back exactly those
// frames, in order, and never reaches a never-used one.
func TestAllocAfterFreeReturnsTheFrameJustFreed(t *testing.T) {
	m := newTestMem(numShards * chunkFrames * 2)
	var pages [numShards]*Page
	for round := 0; round < 3; round++ {
		for i := range pages {
			p, err := m.Alloc(nil, 0, false)
			if err != nil {
				t.Fatal(err)
			}
			if round > 0 && p != pages[i] {
				t.Fatalf("round %d alloc %d: got frame %#x, want %#x just freed", round, i, p.PA, pages[i].PA)
			}
			pages[i] = p
		}
		for _, p := range pages {
			m.Free(p)
		}
	}
	if got := framesWithData(m); got != numShards*chunkFrames {
		t.Fatalf("%d frames carved, want one chunk per shard (%d)", got, numShards*chunkFrames)
	}
}

// TestAllocFreeCyclesCarveOnlyPeakUse runs k-page alloc/free cycles on a
// large machine: the frames given data must stay within the cycle's k
// frames plus one chunk of slack per shard, however many cycles run.
func TestAllocFreeCyclesCarveOnlyPeakUse(t *testing.T) {
	const npages = 1 << 16 // 256 MB of simulated RAM
	for _, k := range []int{1, 5, 16, 77, 300} {
		m := newTestMem(npages)
		pages := make([]*Page, k)
		for cycle := 0; cycle < 200; cycle++ {
			for i := range pages {
				p, err := m.Alloc(nil, 0, cycle%2 == 0)
				if err != nil {
					t.Fatal(err)
				}
				if len(p.Data) != param.PageSize {
					t.Fatalf("k=%d: allocated frame %#x has %d data bytes", k, p.PA, len(p.Data))
				}
				pages[i] = p
			}
			// Free in allocation order and in reverse on alternate cycles.
			for i := range pages {
				if cycle%2 == 0 {
					m.Free(pages[i])
				} else {
					m.Free(pages[k-1-i])
				}
			}
		}
		if carved, limit := framesWithData(m), k+numShards*chunkFrames; carved > limit {
			t.Errorf("k=%d: %d frames carved, want at most %d", k, carved, limit)
		}
	}
}

// framesWithData counts the frames that have been given data.
func framesWithData(m *Mem) int {
	n := 0
	for i := range m.frames {
		if m.frames[i].Data != nil {
			n++
		}
	}
	return n
}
