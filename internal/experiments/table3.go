package experiments

import (
	"fmt"
	"io"
	"time"

	"uvm/internal/param"
	"uvm/internal/vfs"
	"uvm/internal/vmapi"
)

// T3Row is one row of Table 3: single-page map-fault-unmap latency.
type T3Row struct {
	Case               string
	BSD, UVM           time.Duration
	PaperBSD, PaperUVM time.Duration
}

type t3case struct {
	name  string
	write bool
	flags vmapi.MapFlags
	pBSD  time.Duration
	pUVM  time.Duration
}

// Table3 reproduces Table 3: the time to memory map one page, fault it
// in, and unmap it, for six mapping/fault combinations (averaged over
// iters cycles against a warm file object).
func Table3(iters int) ([]T3Row, error) {
	cases := []t3case{
		{"read/shared file", false, vmapi.MapShared, 24 * time.Microsecond, 21 * time.Microsecond},
		{"read/private file", false, vmapi.MapPrivate, 48 * time.Microsecond, 22 * time.Microsecond},
		{"write/shared file", true, vmapi.MapShared, 113 * time.Microsecond, 100 * time.Microsecond},
		{"write/private file", true, vmapi.MapPrivate, 80 * time.Microsecond, 67 * time.Microsecond},
		{"read/zero fill", false, vmapi.MapAnon | vmapi.MapPrivate, 60 * time.Microsecond, 49 * time.Microsecond},
		{"write/zero fill", true, vmapi.MapAnon | vmapi.MapPrivate, 60 * time.Microsecond, 48 * time.Microsecond},
	}
	var rows []T3Row
	for _, c := range cases {
		bsd, uv := pair(stdConfig())
		bt, err := mapFaultUnmap(bsd, c, iters)
		if err != nil {
			return nil, err
		}
		ut, err := mapFaultUnmap(uv, c, iters)
		if err != nil {
			return nil, err
		}
		rows = append(rows, T3Row{c.name, bt, ut, c.pBSD, c.pUVM})
	}
	return rows, nil
}

func mapFaultUnmap(sys vmapi.System, c t3case, iters int) (time.Duration, error) {
	mach := sys.Machine()
	p, err := sys.NewProcess("bench")
	if err != nil {
		return 0, err
	}
	var vn *vfs.Vnode
	if c.flags&vmapi.MapAnon == 0 {
		if err := mach.FS.Create("/bench.dat", param.PageSize, func(_ int, b []byte) { b[0] = 1 }); err != nil {
			return 0, err
		}
		v, err := mach.FS.Open("/bench.dat")
		if err != nil {
			return 0, err
		}
		vn = v
		// Warm the file page so the steady-state fault is memory-speed,
		// as in the paper's averaged measurement.
		va, err := p.Mmap(0, param.PageSize, param.ProtRead, vmapi.MapShared, vn, 0)
		if err != nil {
			return 0, err
		}
		if err := p.Access(va, false); err != nil {
			return 0, err
		}
		if err := p.Munmap(va, param.PageSize); err != nil {
			return 0, err
		}
	}

	prot := param.ProtRead
	if c.write {
		prot = param.ProtRW
	}
	t0 := mach.Clock.Now()
	for i := 0; i < iters; i++ {
		va, err := p.Mmap(0, param.PageSize, prot, c.flags, vn, 0)
		if err != nil {
			return 0, err
		}
		if err := p.Access(va, c.write); err != nil {
			return 0, err
		}
		if err := p.Munmap(va, param.PageSize); err != nil {
			return 0, err
		}
	}
	total := mach.Clock.Since(t0)
	p.Exit()
	if vn != nil {
		vn.Unref()
	}
	return total / time.Duration(iters), nil
}

// ReportTable3 renders the table.
func ReportTable3(w io.Writer, iters int) error {
	rows, err := Table3(iters)
	if err != nil {
		return err
	}
	header(w, "Table 3: single page map-fault-unmap time")
	fmt.Fprintf(w, "%-22s %12s %12s   %s\n", "Fault/mapping", "BSD VM", "UVM", "(paper µs: BSD/UVM)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %12s %12s   (%d/%d)\n",
			r.Case, r.BSD.Round(10*time.Nanosecond), r.UVM.Round(10*time.Nanosecond),
			r.PaperBSD.Microseconds(), r.PaperUVM.Microseconds())
	}
	return nil
}
