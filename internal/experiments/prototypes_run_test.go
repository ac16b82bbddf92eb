package experiments_test

import (
	"bytes"
	"fmt"
	"testing"

	"halo/internal/experiments"
	"halo/internal/runner"
)

// TestPrototypesBuiltOncePerRun: in a pooled run at one and at four workers,
// every prototype the experiments share is built exactly once, none is held
// once the run is over, and the tables are those of a run with a fresh
// registry. A second run builds each again: nothing carries over. The
// reference tables are the first run's — serial, on a fresh registry — so
// every run after it, the fresh four-worker one included, must reproduce
// them.
func TestPrototypesBuiltOncePerRun(t *testing.T) {
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
	cfg := experiments.QuickConfig()
	for _, c := range cases {
		id, keys := c.id, c.keys
		if testing.Short() && id == "fig10" {
			continue // its 2M-entry fixture
		}
		if _, ok := experiments.Find(id); !ok {
			t.Fatalf("no experiment %s", id)
		}
		var ref []byte
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", id, workers), func(t *testing.T) {
				r, _ := experiments.Find(id)
				for pass := 1; pass <= 2; pass++ {
					var out bytes.Buffer
					if err := runner.Run(runner.Options{Workers: workers}, cfg, []experiments.Runner{r}, &out); err != nil {
						t.Fatal(err)
					}
					if ref == nil {
						ref = out.Bytes()
					} else if !bytes.Equal(out.Bytes(), ref) {
						t.Fatalf("pass %d: tables differ from the first run's, serial on a fresh registry:\n%s\n%s", pass, out.Bytes(), ref)
					}
					builds, held := experiments.PrototypeBuilds(r)
					if len(builds) != keys {
						t.Fatalf("pass %d: %d prototype keys built, want %d: %v", pass, len(builds), keys, builds)
					}
					for k, n := range builds {
						if n != pass {
							t.Errorf("pass %d: %s built %d times, want once per run", pass, k, n)
						}
					}
					if held != 0 {
						t.Errorf("pass %d: %d prototypes held after the run", pass, held)
					}
				}
			})
		}
	}
}
