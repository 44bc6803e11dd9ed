package disk

import "sync"

// This file is the generalised asynchronous write engine shared by every
// paging backend: a bounded in-flight window of page-run writes to one
// disk, with completions delivered by callback. It started life inside
// internal/swap (the pagedaemon's async cluster pageout, PR 3) and was
// hoisted here so the object writeback pipeline — msync, aobj pageout,
// vnode recycling — can push vnode pages through the filesystem disk with
// exactly the same machinery that pushes anonymous clusters to swap.
//
// The model is unchanged from the swap original. A writer admits at most
// its window's worth of writes at once; a submitter that finds the window
// full blocks until a completion opens a slot — the natural backpressure
// that keeps a fast producer (an msync sweep, the pagedaemon's scan) from
// burying a slow disk. Writes through one writer are serialised by an I/O
// mutex (one head per disk), but the data transfer runs off the
// submitter's goroutine and is charged as deferred I/O, so the submitter's
// simulated clock never pays for an overlapped write. Completions for
// different submissions may run concurrently and in any order; each
// callback runs exactly once, off the submitter's goroutine.
//
// Every writer admits DefaultAIOWindow writes. Admission and Drain
// share one condvar-gated counter pair: admitted bounds the window,
// inFlight tracks callbacks that have not yet returned.

// DefaultAIOWindow is the in-flight write window of every writer.
const DefaultAIOWindow = 4

// AsyncWriter is a bounded in-flight window of asynchronous page writes
// to one Disk.
type AsyncWriter struct {
	d *Disk

	// io serialises the transfers of overlapped writes: one head per
	// disk, so concurrent submissions still queue at the device.
	//uvm:lock diskhead
	io sync.Mutex

	//uvm:lock diskaio
	mu       sync.Mutex
	cond     *sync.Cond
	admitted int // writes holding a window slot (released before done)
	inFlight int // writes submitted whose done callback has not returned
}

// NewAsyncWriter creates a writer for d admitting DefaultAIOWindow
// concurrent writes.
func NewAsyncWriter(d *Disk) *AsyncWriter {
	w := &AsyncWriter{d: d}
	w.cond = sync.NewCond(&w.mu)
	return w
}

// Submit queues an asynchronous write of len(bufs) consecutive blocks
// starting at start, returning as soon as the window has admitted it and
// blocking only while the window is full. done is invoked exactly once,
// from another goroutine, with the write's result; the caller must treat
// the buffers as owned by the I/O until then.
func (w *AsyncWriter) Submit(start int64, bufs [][]byte, done func(error)) {
	w.mu.Lock()
	for w.admitted >= DefaultAIOWindow {
		w.cond.Wait()
	}
	w.admitted++
	w.inFlight++
	w.mu.Unlock()

	go func() {
		w.io.Lock()
		err := w.d.WritePagesDeferred(start, bufs)
		w.io.Unlock()
		// Release the window slot before running the callback, so a slow
		// completion (or one that submits follow-on work) never blocks
		// the next admission — matching the original channel-semaphore
		// ordering.
		w.mu.Lock()
		w.admitted--
		w.cond.Broadcast()
		w.mu.Unlock()
		done(err)
		w.mu.Lock()
		w.inFlight--
		if w.inFlight == 0 {
			w.cond.Broadcast()
		}
		w.mu.Unlock()
	}()
}

// Drain blocks until every write submitted so far has completed (its
// done callback has returned). Used by shutdown paths that must
// guarantee no completion callback is still running.
func (w *AsyncWriter) Drain() {
	w.mu.Lock()
	for w.inFlight > 0 {
		w.cond.Wait()
	}
	w.mu.Unlock()
}
