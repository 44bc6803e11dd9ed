package main

import (
	"bufio"
	"fmt"
	"os"
	"time"

	"uvm/internal/sim"
	"uvm/internal/vmapi"
)

// op names what a span covers: a request, or one call the benchmark makes
// into a layer.
type op uint8

const (
	opRequest  op = iota
	opMmap        // uvm.map: Mmap
	opMunmap      // uvm.map: Munmap
	opZfod        // uvm.fault: write to a fresh anonymous page
	opCow         // uvm.fault: write to a page shared with the parent
	opFile        // uvm.fault: access that read the file system disk
	opSwapin      // uvm.fault: access that read the swap disk
	opResident    // uvm.fault: access that moved no disk
	opFork        // uvm.proc: Fork
	opExit        // uvm.proc: Exit
	opMsync       // uvm.objwb: Msync
	opOpen        // vfs: Open
	opUnref       // vfs: Unref
	numOps
)

var opInfo = [numOps]struct{ layer, name string }{
	opRequest:  {"request", "request"},
	opMmap:     {"uvm.map", "mmap"},
	opMunmap:   {"uvm.map", "munmap"},
	opZfod:     {"uvm.fault", "zfod"},
	opCow:      {"uvm.fault", "cow"},
	opFile:     {"uvm.fault", "file"},
	opSwapin:   {"uvm.fault", "swapin"},
	opResident: {"uvm.fault", "resident"},
	opFork:     {"uvm.proc", "fork"},
	opExit:     {"uvm.proc", "exit"},
	opMsync:    {"uvm.objwb", "msync"},
	opOpen:     {"vfs", "open"},
	opUnref:    {"vfs", "unref"},
}

// span is one traced interval. Spans of one request share req; a call's
// parent is its request's span.
type span struct {
	start, end       int64 // host ns since the trace began
	simStart, simEnd int64 // simulated ns
	req              int64
	parent           int32 // index in the same buffer, -1 for a request
	op               op
}

// tracer records the spans of one worker into a buffer allocated before
// the traced phase starts. A nil *tracer records nothing, which is how
// untraced runs call the same code.
type tracer struct {
	spans   []span
	epoch   time.Time
	clock   *sim.Clock
	stats   *sim.Stats
	req     int64
	root    int32
	readsAt int64 // disk.reads when the open I/O-classified span began
}

// spanHeadroom is the most spans one request records (anon-cow: the
// request, mmap, 64 zero-fill writes, fork, up to 24 COW writes, exit, 64
// reads, munmap). A worker stops its traced phase when less is left.
const spanHeadroom = 160

func newTracer(m *vmapi.Machine, capacity int, epoch time.Time) *tracer {
	return &tracer{spans: make([]span, 0, capacity), epoch: epoch, clock: m.Clock, stats: m.Stats, root: -1}
}

// full reports whether another request might not fit.
func (t *tracer) full() bool {
	return t != nil && cap(t.spans)-len(t.spans) < spanHeadroom
}

func (t *tracer) beginRequest(id int64) {
	if t == nil {
		return
	}
	t.req = id
	t.root = -1
	t.root = t.begin(opRequest)
}

func (t *tracer) endRequest() {
	if t == nil {
		return
	}
	t.end(t.root)
	t.root = -1
}

// begin opens a span for o and returns its index, or -1 when untraced.
func (t *tracer) begin(o op) int32 {
	if t == nil || len(t.spans) == cap(t.spans) {
		return -1
	}
	t.spans = append(t.spans, span{
		start:    int64(time.Since(t.epoch)),
		simStart: int64(t.clock.Now()),
		req:      t.req,
		parent:   t.root,
		op:       o,
	})
	return int32(len(t.spans) - 1)
}

// beginIO opens a fault span that end reclassifies: it stays miss (opFile
// or opSwapin) if the call read the disk, and becomes opResident if not.
func (t *tracer) beginIO(miss op) int32 {
	if t == nil {
		return -1
	}
	t.readsAt = t.stats.Get(sim.CtrDiskReads)
	return t.begin(miss)
}

func (t *tracer) end(i int32) {
	if t == nil || i < 0 {
		return
	}
	s := &t.spans[i]
	s.end = int64(time.Since(t.epoch))
	s.simEnd = int64(t.clock.Now())
	if (s.op == opFile || s.op == opSwapin) && t.stats.Get(sim.CtrDiskReads) == t.readsAt {
		s.op = opResident
	}
}

// writeSpans writes every worker's spans as tab-separated lines.
func writeSpans(path string, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "worker\tid\tparent\treq\tlayer\top\tstart_ns\tend_ns\tsim_start_ns\tsim_end_ns")
	for wi, t := range tracers {
		for i, s := range t.spans {
			fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%s\t%s\t%d\t%d\t%d\t%d\n", wi, i, s.parent, s.req,
				opInfo[s.op].layer, opInfo[s.op].name, s.start, s.end, s.simStart, s.simEnd)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanDurations collects the host and simulated durations, in ns, of
// every span of each op across all workers.
type spanDurations struct {
	host, sim [numOps][]int64
}

func collectSpans(tracers []*tracer) *spanDurations {
	d := &spanDurations{}
	for _, t := range tracers {
		for _, s := range t.spans {
			d.host[s.op] = append(d.host[s.op], s.end-s.start)
			d.sim[s.op] = append(d.sim[s.op], s.simEnd-s.simStart)
		}
	}
	return d
}

// selfShare returns the share of request time spent in the benchmark itself:
// request span time not covered by any call span.
func selfShare(tracers []*tracer) float64 {
	var total, children int64
	for _, t := range tracers {
		for _, s := range t.spans {
			if s.parent < 0 {
				total += s.end - s.start
			} else {
				children += s.end - s.start
			}
		}
	}
	return ratio(float64(total-children), float64(total))
}
