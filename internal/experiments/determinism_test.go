package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"halo/internal/stats"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/quick/<id>.txt with current output")

// TestExperimentsDeterministic runs every registry experiment twice
// back-to-back — once bare, once with a stats collector attached — and
// asserts the rendered output is byte-identical both times and equal to
// the committed golden render. One comparison covers three properties:
//
//   - determinism, which the parallel runner's fan-out relies on: a sweep
//     point must depend only on (cfg, point), never on process history, map
//     iteration order, or shared mutable state;
//   - collector invariance, which Config.Stats promises: collecting never
//     influences the simulation;
//   - no drift: testdata/quick/<id>.txt holds the QuickConfig render, so a
//     refactor of this package is checked against the bytes it must keep.
//
// Intentional numeric changes: regenerate with
//
//	go test ./internal/experiments -run ExperimentsDeterministic -update-golden
//
// and regenerate halobench_output.txt alongside.
func TestExperimentsDeterministic(t *testing.T) {
	for _, r := range Registry() {
		r := r
		t.Run(r.ID, func(t *testing.T) {
			t.Parallel()
			var bare, collected strings.Builder
			r.Run(QuickConfig(), &bare)
			cfg := QuickConfig()
			cfg.Stats = stats.NewCollector()
			r.Run(cfg, &collected)
			if bare.String() != collected.String() {
				t.Errorf("experiment %s output changed between a bare run and one with a collector:\n--- bare ---\n%s\n--- collected ---\n%s",
					r.ID, bare.String(), collected.String())
			}

			golden := filepath.Join("testdata", "quick", r.ID+".txt")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(bare.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (regenerate with -update-golden)", err)
			}
			if bare.String() != string(want) {
				t.Errorf("experiment %s render drifted from %s:\n--- golden ---\n%s\n--- got ---\n%s",
					r.ID, golden, want, bare.String())
			}
		})
	}
}

// TestSweepPointsStable asserts the point enumeration itself is
// deterministic, indices are dense — the pool stores rows by Point.Index,
// so a gap or duplicate would silently drop results — and labels are unique
// within an experiment: stats-document consumers key maps by label, so a
// duplicate would overwrite silently.
func TestSweepPointsStable(t *testing.T) {
	t.Parallel()
	for _, r := range Registry() {
		for _, cfg := range []Config{QuickConfig(), DefaultConfig()} {
			a := r.Sweep.Points(cfg)
			b := r.Sweep.Points(cfg)
			if len(a) != len(b) {
				t.Errorf("%s: point count changed between enumerations (%d vs %d)", r.ID, len(a), len(b))
				continue
			}
			seen := map[string]int{}
			for i := range a {
				if a[i] != b[i] {
					t.Errorf("%s: point %d changed between enumerations: %+v vs %+v", r.ID, i, a[i], b[i])
				}
				if a[i].Index != i {
					t.Errorf("%s: point %d has index %d; indices must be dense and in order", r.ID, i, a[i].Index)
				}
				if a[i].Experiment != r.ID {
					t.Errorf("%s: point %d claims experiment %q", r.ID, i, a[i].Experiment)
				}
				if j, dup := seen[a[i].Label]; dup {
					t.Errorf("%s: points %d and %d share the label %q", r.ID, j, i, a[i].Label)
				}
				seen[a[i].Label] = i
			}
		}
	}
}
