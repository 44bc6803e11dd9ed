package swap

import (
	"fmt"
	"sync"

	"uvm/internal/sim"
)

// This file is the asynchronous half of the swap I/O path: a bounded
// per-device in-flight window of cluster writes whose completions are
// delivered by callback. The pagedaemon uses it to overlap its next
// inactive-queue scan with pageout I/O still on the wire (the "async
// cluster I/O" follow-on to the paper's clustered pageout): it submits a
// cluster with WriteClusterAsync and keeps scanning; the completion
// callback releases the cluster's pages.
//
// The window/backpressure machinery itself lives in disk.AsyncWriter —
// the generalised engine shared with the vfs writeback path — and each
// swap device owns one writer. This file keeps the swap-wide
// bookkeeping: the aggregate in-flight count that DrainAsync waits on,
// and the swap.aio.* stats.

// aio is the Swap-wide async-write bookkeeping: the in-flight count
// Drain waits on.
type aio struct {
	//uvm:lock swapaio
	mu       sync.Mutex
	cond     *sync.Cond
	inFlight int
}

func (a *aio) init() {
	a.cond = sync.NewCond(&a.mu)
}

// AIOInFlight returns the number of asynchronous cluster writes currently
// submitted but not yet completed (test/debug helper).
func (s *Swap) AIOInFlight() int {
	s.aio.mu.Lock()
	defer s.aio.mu.Unlock()
	return s.aio.inFlight
}

// WriteClusterAsync submits a contiguous cluster write and returns as
// soon as the target device has admitted it to its in-flight window,
// blocking only while the window is full. done is invoked exactly once,
// from another goroutine, with the write's result; the caller must treat
// the buffers as owned by the I/O until then. Malformed requests (a run
// that escapes its device) are reported synchronously and done is never
// called.
func (s *Swap) WriteClusterAsync(start int64, bufs [][]byte, done func(error)) error {
	d := s.deviceFor(start)
	if start-d.base+int64(len(bufs)) > d.size {
		return fmt.Errorf("swap: cluster at %d spans devices", start)
	}

	// The swap-wide in-flight count rises at submission (before the
	// window gate, so DrainAsync started concurrently cannot miss us) and
	// falls after done returns.
	s.aio.mu.Lock()
	s.aio.inFlight++
	inFlight := s.aio.inFlight
	s.aio.mu.Unlock()
	s.ctrIOs.Inc()
	s.stats.Inc(sim.CtrSwapAIOWrites)
	s.stats.Add(sim.CtrSwapAIOPages, int64(len(bufs)))
	s.stats.Max(sim.CtrSwapAIOInFlightMax, int64(inFlight))

	d.writer.Submit(start-d.base, bufs, func(err error) {
		done(err)
		s.aio.mu.Lock()
		s.aio.inFlight--
		if s.aio.inFlight == 0 {
			s.aio.cond.Broadcast()
		}
		s.aio.mu.Unlock()
	})
	return nil
}

// DrainAsync blocks until every asynchronous cluster write submitted so
// far has completed (its done callback has returned). Used by shutdown
// paths that must guarantee no completion callback is still running.
func (s *Swap) DrainAsync() {
	s.aio.mu.Lock()
	for s.aio.inFlight > 0 {
		s.aio.cond.Wait()
	}
	s.aio.mu.Unlock()
}
