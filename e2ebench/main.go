// Command e2ebench is the repository's end-to-end benchmark. It boots uvm
// with its shipped default configuration on a simulated machine and drives
// it through vmapi and vfs with one of three closed-loop workloads
// (anon-cow, file-serve, anon-swap), checks every byte it reads back, and
// prints host and simulated end-to-end metrics, or, with -trace 1, the
// per-layer metrics of a traced run. See README.md for the workloads, the
// metrics and what each layer metric is expected to move.
//
//	bash e2ebench/run.sh --workload anon-cow --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"
)

// A run sets up setups times, keeps the last machine and reports the
// median set-up time; it loads that machine for warmup, unmeasured, so
// caches fill before the measured phase.
const (
	setups = 7
	warmup = 2 * time.Second
)

func main() { os.Exit(benchMain()) }

func benchMain() int {
	name := flag.String("workload", "", "workload to run: anon-cow, file-serve or anon-swap")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed generates the same inputs")
	seconds := flag.Float64("seconds", 10, "length of the measured phase in host seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	out := flag.String("out", ".bench_build/e2ebench-out", "directory for the spans and CPU profile of a traced run")
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		return 2
	}
	wl, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 2
	}
	cfg := runConfig{
		wl:      wl,
		seed:    *seed,
		measure: time.Duration(*seconds * float64(time.Second)),
		warmup:  warmup,
		setups:  setups,
		trace:   *trace == 1,
		outDir:  *out,
	}
	fmt.Printf("host nproc=%d GOMAXPROCS=%d go=%s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Printf("run workload=%s seed=%d seconds=%g trace=%d workers=%d setups=%d warmup=%s\n",
		wl.name, cfg.seed, *seconds, *trace, wl.workers, cfg.setups, cfg.warmup)

	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	report(os.Stdout, res)
	return 0
}

// report prints the run's metrics by name with their units, the failure
// table and the checks, then the result object as the last line.
func report(w io.Writer, r *result) {
	var ms metrics
	phases := []*phase{r.measured}
	if r.traced != nil {
		ms = perLayer(r)
		phases = append(phases, r.traced)
		fmt.Fprintf(w, "trace spans and CPU profile in %s\n", r.cfg.outDir)
	} else {
		ms = endToEnd(r)
		fmt.Fprintf(w, "setup_s samples %s; set-up calls retried: %s\n", fmtDurations(r.setup), fmtKinds(r.setupFail))
		fmt.Fprintf(w, "latency samples n=%d of %d requests\n", len(r.measured.samples), r.measured.requests)
		printMetrics(w, "info ", endToEndInfo(r))
	}
	printMetrics(w, "", ms)

	var attempted, failed int64
	fails := make([][numFailKinds]int64, len(r.wl.reqTypes))
	attempts := make([][numFailKinds]int64, len(r.wl.reqTypes))
	for _, ph := range phases {
		attempted += ph.requests
		failed += ph.failed
		for t := range ph.fails {
			for k := range ph.fails[t] {
				fails[t][k] += ph.fails[t][k]
				attempts[t][k] += ph.attempts[t][k]
			}
		}
	}
	for t, typ := range r.wl.reqTypes {
		fmt.Fprintf(w, "%s requests failed: %s; failed attempts: %s\n", typ, fmtKinds(fails[t]), fmtKinds(attempts[t]))
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "e2ebench: check failed:", p)
	}
	line, err := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int64   `json:"attempted"`
		Failed    int64   `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{len(r.problems) == 0, attempted, failed, ms})
	if err != nil {
		panic(err) // unreachable: plain numbers and strings
	}
	fmt.Fprintln(w, string(line))
}

func printMetrics(w io.Writer, prefix string, ms metrics) {
	names := make([]string, 0, len(ms))
	//uvm:maporder-ok names are sorted before printing
	for k := range ms {
		names = append(names, k)
	}
	slices.Sort(names)
	for _, k := range names {
		fmt.Fprintf(w, "%s%-44s %16.6f %s\n", prefix, k, ms[k].Value, ms[k].Unit)
	}
}

func fmtKinds(n [numFailKinds]int64) string {
	var parts []string
	for k := failFault; k < numFailKinds; k++ {
		parts = append(parts, fmt.Sprintf("%s=%d", failNames[k], n[k]))
	}
	return strings.Join(parts, " ")
}

func fmtDurations(ds []time.Duration) string {
	parts := make([]string, len(ds))
	for i, d := range ds {
		parts[i] = fmt.Sprintf("%.4f", d.Seconds())
	}
	return strings.Join(parts, " ")
}
