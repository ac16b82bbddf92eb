package hypotheses

import (
	"strings"
	"testing"

	"halo/internal/benchjson"
)

// tinyConfig keeps harness tests fast: same procedure, toy sizes, one seed.
func tinyConfig() Config {
	return Config{Seeds: []uint64{42}, Flows: 2_000, Ops: 8_000, Batch: 16, Shards: 4, Repeats: 1}
}

// TestExperimentsRunAndVerify drives every registered experiment end to end
// at toy scale. It asserts measurement sanity (both arms produced positive
// costs, every lookup verified against the installed value) — NOT a
// statistical direction, which a toy run on a busy test machine cannot pin.
func TestExperimentsRunAndVerify(t *testing.T) {
	cfg := tinyConfig()
	for _, e := range Registry() {
		t.Run(e.Name, func(t *testing.T) {
			res, err := RunExperiment(e, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Seeds) != len(cfg.Seeds) {
				t.Fatalf("got %d seed results, want %d", len(res.Seeds), len(cfg.Seeds))
			}
			for _, sr := range res.Seeds {
				if sr.ANsPerOp <= 0 || sr.BNsPerOp <= 0 {
					t.Errorf("seed %d: non-positive cost A=%v B=%v", sr.Seed, sr.ANsPerOp, sr.BNsPerOp)
				}
			}
			if res.Verdict.Class == "" {
				t.Error("verdict not classified")
			}
			var sb strings.Builder
			res.Render(&sb)
			for _, want := range []string{e.Name, "Verdict:", "| seed |"} {
				if !strings.Contains(sb.String(), want) {
					t.Errorf("render missing %q:\n%s", want, sb.String())
				}
			}
		})
	}
}

// TestRegistryNames pins the experiment names the hypotheses/ directory and
// CI reference.
func TestRegistryNames(t *testing.T) {
	want := []string{"shard-grouped-batching", "pinned-reader-equivalence", "shm-vs-unix-transport",
		"wire-pipelining-depth-tcp", "wire-pipelining-depth-unix"}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(reg), len(want))
	}
	for i, e := range reg {
		if e.Name != want[i] {
			t.Errorf("registry[%d] = %s, want %s", i, e.Name, want[i])
		}
		if _, ok := Find(e.Name); !ok {
			t.Errorf("Find(%q) failed", e.Name)
		}
	}
	if _, ok := Find("no-such-experiment"); ok {
		t.Error("Find accepted an unknown name")
	}
}

// TestDocumentShape checks the emitted artifact is a valid, benchdiff-ready
// halo-bench/v1 document with stamped workload identity.
func TestDocumentShape(t *testing.T) {
	cfg := tinyConfig()
	e, _ := Find("shard-grouped-batching")
	res, err := RunExperiment(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	doc := Document(cfg, []Result{res})
	data, err := benchjson.Encode(doc)
	if err != nil {
		t.Fatal(err)
	}
	back, err := benchjson.DecodeAny(data)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(back.Benchmarks); got != 2 { // 1 seed × 2 arms
		t.Fatalf("got %d benchmarks, want 2", got)
	}
	if back.Config["tool"] != "hypotheses" || back.Config["flows"] != "2000" {
		t.Errorf("config not stamped: %v", back.Config)
	}
	if len(back.Seeds) != 1 || back.Seeds[0] != 42 {
		t.Errorf("seeds not stamped: %v", back.Seeds)
	}
	for _, b := range back.Benchmarks {
		if !strings.HasPrefix(b.Name, "Hypothesis/shard-grouped-batching/") {
			t.Errorf("benchmark name %q lacks Hypothesis/ prefix", b.Name)
		}
		if b.Metrics["ns/op"] <= 0 || b.Metrics["lookups/sec"] <= 0 {
			t.Errorf("%s: degenerate metrics %v", b.Name, b.Metrics)
		}
	}
	// A doc diffed against itself must be comparable and all-equivalent.
	if _, err := benchjson.CheckComparable(back, back); err != nil {
		t.Errorf("self-comparison refused: %v", err)
	}
}
