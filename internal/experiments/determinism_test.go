package experiments

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"halo/internal/stats"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/quick/<id>.txt with current output")

// quickRun is one QuickConfig pass over every point of an experiment: rows
// and snapshots in point order, the rendered tables, and the sweep's
// prototype accounting once the pass is over.
type quickRun struct {
	rows   []any
	snaps  []*stats.Snapshot
	render string
	builds map[string]int // builds per prototype key over the sweep's life
	held   int            // prototypes the sweep still holds
}

// quickExp runs one experiment at QuickConfig at most twice per test binary,
// both passes on one runner: pass 1 serially, pass 2 on four workers, so
// pass 2 is its sweep's second run and a concurrent first build of every
// prototype. Every test that needs a QuickConfig run reads these passes.
type quickExp struct {
	r             Runner
	once1, once2  sync.Once
	first, second quickRun
}

var quick = func() map[string]*quickExp {
	m := make(map[string]*quickExp)
	for _, r := range Registry() {
		m[r.ID] = &quickExp{r: r}
	}
	return m
}()

func (q *quickExp) pass1() *quickRun {
	q.once1.Do(func() { q.first = runPass(q.r, 1) })
	return &q.first
}

func (q *quickExp) pass2() *quickRun {
	q.pass1()
	q.once2.Do(func() { q.second = runPass(q.r, 4) })
	return &q.second
}

// quickResult assembles e's typed result from its pass 1.
func quickResult[C, R, Res any](e experiment[C, R, Res]) Res {
	return e.fromRows(QuickConfig(), quick[e.id].pass1().rows)
}

// runPass runs every point of r at QuickConfig on `workers` goroutines.
func runPass(r Runner, workers int) quickRun {
	cfg := QuickConfig()
	pts := r.Sweep.Points(cfg)
	run := quickRun{rows: make([]any, len(pts)), snaps: make([]*stats.Snapshot, len(pts))}
	var next atomic.Int64
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(pts); i = int(next.Add(1)) - 1 {
				run.rows[i], run.snaps[i] = r.Sweep.RunPoint(cfg, pts[i])
			}
		}()
	}
	wg.Wait()
	var sb strings.Builder
	r.Sweep.Render(cfg, run.rows, &sb)
	run.render = sb.String()
	run.builds, run.held = prototypeBuilds(r)
	return run
}

// prototypeBuilds reports, for r's sweep, how many times each prototype key
// has been built over the sweep's life and how many prototypes it holds now.
func prototypeBuilds(r Runner) (builds map[string]int, held int) {
	s := r.Sweep.protos
	s.mu.Lock()
	defer s.mu.Unlock()
	builds = make(map[string]int, len(s.builds))
	for k, n := range s.builds {
		builds[fmt.Sprintf("%T%+v", k, k)] = n
	}
	return builds, len(s.entries)
}

// TestExperimentsDeterministic runs every registry experiment twice — once
// serially, once on four workers — and asserts that the second run repeats
// the first's render, rows and component snapshots exactly, and that the
// render equals the committed golden. One comparison covers two properties:
//
//   - determinism, which the parallel runner's fan-out relies on: a sweep
//     point must depend only on (cfg, point), never on process history,
//     scheduling, map iteration order, or shared mutable state;
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
		id := r.ID
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			q := quick[id]
			first := q.pass1()

			golden := filepath.Join("testdata", "quick", id+".txt")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(first.render), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (regenerate with -update-golden)", err)
			}
			if first.render != string(want) {
				t.Errorf("experiment %s render drifted from %s:\n--- golden ---\n%s\n--- got ---\n%s",
					id, golden, want, first.render)
			}

			second := q.pass2()
			if second.render != first.render {
				t.Errorf("experiment %s output changed on a repeat run:\n--- first ---\n%s\n--- repeat ---\n%s",
					id, first.render, second.render)
			}
			for i, p := range r.Sweep.Points(QuickConfig()) {
				if a, b := fmt.Sprintf("%#v", first.rows[i]), fmt.Sprintf("%#v", second.rows[i]); a != b {
					t.Errorf("%s point %q: row changed on a repeat run:\n  first:  %s\n  repeat: %s", id, p.Label, a, b)
				}
				a, err := json.Marshal(first.snaps[i])
				if err != nil {
					t.Fatal(err)
				}
				b, err := json.Marshal(second.snaps[i])
				if err != nil {
					t.Fatal(err)
				}
				if string(a) != string(b) {
					t.Errorf("%s point %q: snapshot changed on a repeat run:\n  first:  %s\n  repeat: %s", id, p.Label, a, b)
				}
			}
		})
	}
}

// TestPrototypesBuiltOncePerRun reads each sharing experiment's two passes
// on one fresh runner: pass 1 serial, pass 2 at four workers. Every
// prototype is built exactly once per run (builds reads 1 per key after
// pass 1, 2 after pass 2), none is held once a run is over, and pass 2's
// tables equal pass 1's. Pass 2 is still a concurrent first build of every
// prototype: the end of pass 1 empties the store, so pass 2 starts from
// what a fresh registry has, and nothing carries over between runs.
func TestPrototypesBuiltOncePerRun(t *testing.T) {
	t.Parallel()
	// The prototype keys each sharing experiment builds at QuickConfig.
	cases := []struct {
		id   string
		keys int
	}{
		{"lockoverhead", 1},
		{"fig9", 5},  // one fixture per size
		{"fig10", 2}, // one fixture per placement
		{"fig11", 2}, // one tuple space per tuple count
		{"fig13", 6}, // one NF table per (NF, size)
		{"scaling", 1},
	}
	for _, c := range cases {
		q, keys := quick[c.id], c.keys
		t.Run(c.id, func(t *testing.T) {
			t.Parallel()
			for i, pass := range []struct {
				workers int
				run     func() *quickRun
			}{{1, q.pass1}, {4, q.pass2}} {
				n := i + 1
				ok := t.Run(fmt.Sprintf("workers=%d", pass.workers), func(t *testing.T) {
					run := pass.run()
					if ref := q.pass1(); run.render != ref.render {
						t.Fatalf("pass %d: tables differ from pass 1's:\n%s\n%s", n, run.render, ref.render)
					}
					if len(run.builds) != keys {
						t.Fatalf("pass %d: %d prototype keys built, want %d: %v", n, len(run.builds), keys, run.builds)
					}
					for k, b := range run.builds {
						if b != n {
							t.Errorf("pass %d: %s built %d times, want once per run", n, k, b)
						}
					}
					if run.held != 0 {
						t.Errorf("pass %d: %d prototypes held after the run", n, run.held)
					}
				})
				if !ok {
					break
				}
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
				if j, dup := seen[a[i].Label]; dup {
					t.Errorf("%s: points %d and %d share the label %q", r.ID, j, i, a[i].Label)
				}
				seen[a[i].Label] = i
			}
		}
	}
}
