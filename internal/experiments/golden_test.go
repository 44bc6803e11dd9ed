package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// checkPaperGoldens is the regression fence for the paper experiments:
// their simulated-time reports are deterministic, so they must stay
// byte-identical to the checked-in goldens. A diff here means something
// leaked into the deterministic path — an ordering change in the
// allocator or the page queues, a stray counter in a path the paper
// times, a changed default — and the paper numbers can no longer be
// compared across revisions.
//
// The goldens are the quick-variant reports (the same variants CI runs);
// regenerate them ONLY for an intentional, explained change to the
// experiments themselves, never to absorb drift.
func checkPaperGoldens(t *testing.T) {
	for _, id := range []string{"table1", "table3", "fig5"} {
		t.Run(id, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", id+".quick.golden"))
			if err != nil {
				t.Fatal(err)
			}
			r, ok := Lookup(id, true)
			if !ok {
				t.Fatalf("experiment %q not registered", id)
			}
			var sb strings.Builder
			if err := r.Run(&sb); err != nil {
				t.Fatal(err)
			}
			if sb.String() != string(want) {
				t.Errorf("report drifted from the golden:\n--- golden:\n%s\n--- got:\n%s",
					want, sb.String())
			}
		})
	}
}

// TestPaperReportsByteIdenticalWithCachesOff pins the paper reports on
// the single-pool page allocator, the only layout there is: the goldens
// were captured before per-CPU free-page caches were added, and the
// caches have since been removed, so the allocator's frame order must
// still reproduce them exactly.
func TestPaperReportsByteIdenticalWithCachesOff(t *testing.T) {
	checkPaperGoldens(t)
}

// TestPaperReportsByteIdenticalWithAutoTuneOff pins the paper reports on
// statically configured reclaim: the goldens were captured before the
// feedback controllers that retuned windows and watermarks at run time
// were added, and the controllers have since been removed, so nothing
// on the paper's paths may depend on run-time retuning.
func TestPaperReportsByteIdenticalWithAutoTuneOff(t *testing.T) {
	checkPaperGoldens(t)
}
