package experiments_test

import (
	"bytes"
	"fmt"
	"testing"

	"halo/internal/experiments"
	"halo/internal/runner"
)

// TestPrototypesBuiltOncePerRun runs each sharing experiment twice on one
// fresh runner: pass 1 serial, pass 2 at four workers. Every prototype is
// built exactly once per run (builds reads 1 per key after pass 1, 2 after
// pass 2), none is held once a run is over, and pass 2's tables equal pass
// 1's. Pass 2 is still a concurrent first build of every prototype: the end
// of pass 1 empties the store, so pass 2 starts from what a fresh registry
// has, and nothing carries over between runs.
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
		r, ok := experiments.Find(id)
		if !ok {
			t.Fatalf("no experiment %s", id)
		}
		var ref []byte
		for i, workers := range []int{1, 4} {
			pass := i + 1
			ok := t.Run(fmt.Sprintf("%s/workers=%d", id, workers), func(t *testing.T) {
				var out bytes.Buffer
				if err := runner.Run(runner.Options{Workers: workers}, cfg, []experiments.Runner{r}, &out); err != nil {
					t.Fatal(err)
				}
				if ref == nil {
					ref = out.Bytes()
				} else if !bytes.Equal(out.Bytes(), ref) {
					t.Fatalf("pass %d: tables differ from pass 1's:\n%s\n%s", pass, out.Bytes(), ref)
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
			})
			if !ok {
				break
			}
		}
	}
}
