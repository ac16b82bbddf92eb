// Package hypotheses is the hypothesis-driven experiment harness: each
// registered experiment states an intuitive claim about the serving runtime
// ("shard-grouped batching beats naive per-key lookups"), runs it across
// the standard seed set (42, 123, 456), and classifies the outcome with the
// BLIS effect-size rules — significant, directional, inconclusive,
// equivalent or refuted — instead of leaving the claim as a commit-message
// number.
//
// The harness is deliberately procedural-deterministic: the flow
// populations, key sequences, arm order, warm-up and repeat policy are all
// fixed by (config, seed), so a rerun measures exactly the same work. The
// measured nanoseconds are wall-clock and therefore machine-dependent — the
// *direction* and effect tier are what a rerun is expected to reproduce,
// which is why every verdict requires directional consistency across all
// seeds (one contradicting seed refutes the claim, per the BLIS standard).
//
// Results land in a `hypotheses/<name>/FINDINGS.md` narrative (template in
// hypotheses/README.md) and regenerate via `go run ./cmd/hypotheses`.
package hypotheses

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"halo/internal/benchjson"
	"halo/internal/flowserve"
	"halo/internal/flowwire"
	"halo/internal/loadgen"
)

// DefaultSeeds is the BLIS seed policy: minimum three seeds, fixed values,
// so every statistical experiment in the repository draws the same
// populations.
var DefaultSeeds = []uint64{42, 123, 456}

// Config parametrises a harness run. Everything here is stamped into the
// emitted halo-bench/v1 document's Config map, so benchdiff refuses to
// compare runs with different shapes.
type Config struct {
	Seeds   []uint64
	Flows   int   // flow population per seed
	Ops     int64 // lookups per arm per repeat
	Batch   int   // keys per LookupMany call
	Shards  int   // table shard count
	Repeats int   // timed repeats per arm; the fastest is kept
}

// DefaultConfig is the full-scale run behind the checked-in FINDINGS.md.
func DefaultConfig() Config {
	return Config{Seeds: DefaultSeeds, Flows: 100_000, Ops: 1_000_000, Batch: 16, Shards: 8, Repeats: 5}
}

// SmokeConfig shrinks the run for CI: same seeds, same procedure, smaller
// population and fewer lookups.
func SmokeConfig() Config {
	return Config{Seeds: DefaultSeeds, Flows: 20_000, Ops: 150_000, Batch: 16, Shards: 8, Repeats: 2}
}

// Kind is the BLIS experiment classification.
type Kind string

const (
	// KindDominance predicts arm A strictly beats arm B on the metric.
	KindDominance Kind = "statistical/dominance"
	// KindEquivalence predicts arm A is within the equivalence band of B.
	KindEquivalence Kind = "statistical/equivalence"
)

// Experiment is one registered hypothesis.
type Experiment struct {
	Name       string // directory name under hypotheses/ (less the transport suffix of wire-pipelining-depth-*)
	Title      string // the hypothesis statement
	Kind       Kind
	ArmA, ArmB string // display names; A is the predicted winner (dominance) or candidate (equivalence)
	// Run measures both arms for one seed and returns the per-arm cost.
	Run func(cfg Config, seed uint64) (SeedResult, error)
}

// SeedResult is one seed's measurement: ns per lookup for each arm, plus
// the improvement of A over B oriented positive-is-better (the Improvement
// convention of internal/benchjson).
type SeedResult struct {
	Seed        uint64
	ANsPerOp    float64
	BNsPerOp    float64
	Improvement float64
}

// Result is one experiment's full outcome.
type Result struct {
	Experiment Experiment
	Seeds      []SeedResult
	Verdict    Verdict
}

// Registry returns every experiment, in report order.
func Registry() []Experiment {
	return []Experiment{
		shardBatchExperiment(),
		pinnedReaderExperiment(),
		shmVsUnixExperiment(),
		pipeliningExperiment(flowwire.TransportTCP),
		pipeliningExperiment(flowwire.TransportUnix),
	}
}

// Find returns the named experiment.
func Find(name string) (Experiment, bool) {
	for _, e := range Registry() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunExperiment measures every seed and classifies the outcome.
func RunExperiment(e Experiment, cfg Config) (Result, error) {
	res := Result{Experiment: e}
	for _, seed := range cfg.Seeds {
		sr, err := e.Run(cfg, seed)
		if err != nil {
			return res, fmt.Errorf("hypotheses: %s seed %d: %w", e.Name, seed, err)
		}
		sr.Seed = seed
		imp, ok := benchjson.Improvement("ns/op", sr.BNsPerOp, sr.ANsPerOp)
		if !ok {
			return res, fmt.Errorf("hypotheses: %s seed %d: degenerate measurement (A %v ns, B %v ns)",
				e.Name, seed, sr.ANsPerOp, sr.BNsPerOp)
		}
		sr.Improvement = imp
		res.Seeds = append(res.Seeds, sr)
	}
	imps := make([]float64, len(res.Seeds))
	for i, sr := range res.Seeds {
		imps[i] = sr.Improvement
	}
	th := benchjson.DefaultThresholds()
	switch e.Kind {
	case KindEquivalence:
		res.Verdict = ClassifyEquivalence(imps, th)
	default:
		res.Verdict = ClassifyDominance(imps, th)
	}
	return res, nil
}

// Render writes one experiment's FINDINGS-ready results block: the per-seed
// table (BLIS: per-seed values for transparency), the mean/min/max summary
// and the verdict line.
func (r Result) Render(w io.Writer) {
	e := r.Experiment
	fmt.Fprintf(w, "### %s — %s\n\n", e.Name, e.Title)
	fmt.Fprintf(w, "Type: %s · A = %s · B = %s\n\n", e.Kind, e.ArmA, e.ArmB)
	fmt.Fprintf(w, "| seed | A ns/lookup | B ns/lookup | A vs B |\n")
	fmt.Fprintf(w, "|---|---|---|---|\n")
	for _, sr := range r.Seeds {
		fmt.Fprintf(w, "| %d | %.1f | %.1f | %+.1f%% |\n",
			sr.Seed, sr.ANsPerOp, sr.BNsPerOp, sr.Improvement*100)
	}
	v := r.Verdict
	fmt.Fprintf(w, "\nImprovement across seeds: mean %+.1f%%, min %+.1f%%, max %+.1f%%\n",
		v.Mean*100, v.Min*100, v.Max*100)
	fmt.Fprintf(w, "**Verdict: %s** — %s\n\n", v.Class, v.Detail)
}

// Document emits the machine-readable artifact for a set of results: a
// halo-bench/v1 document with one benchmark per (experiment, seed, arm), so
// cmd/benchdiff can compare harness runs across commits like any other
// perf artifact.
func Document(cfg Config, results []Result) *benchjson.Document {
	doc := &benchjson.Document{
		Schema:    benchjson.SchemaVersion,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Seeds:     append([]uint64(nil), cfg.Seeds...),
		Config: map[string]string{
			"tool":    "hypotheses",
			"flows":   fmt.Sprint(cfg.Flows),
			"ops":     fmt.Sprint(cfg.Ops),
			"batch":   fmt.Sprint(cfg.Batch),
			"shards":  fmt.Sprint(cfg.Shards),
			"repeats": fmt.Sprint(cfg.Repeats),
		},
		Benchmarks: []benchjson.Benchmark{},
	}
	for _, r := range results {
		for _, sr := range r.Seeds {
			for _, arm := range []struct {
				name string
				ns   float64
			}{
				{"A=" + r.Experiment.ArmA, sr.ANsPerOp},
				{"B=" + r.Experiment.ArmB, sr.BNsPerOp},
			} {
				doc.Benchmarks = append(doc.Benchmarks, benchjson.Benchmark{
					Name:       fmt.Sprintf("Hypothesis/%s/%s/seed=%d", r.Experiment.Name, arm.name, sr.Seed),
					Procs:      1, // arms are measured single-goroutine
					Iterations: cfg.Ops,
					Metrics: map[string]float64{
						"ns/op":       arm.ns,
						"lookups/sec": 1e9 / arm.ns,
					},
				})
			}
		}
	}
	return doc
}

// --- measurement machinery -------------------------------------------------

// arm serves one batch of keys, writing results[i] for each key.
type arm func(keys [][]byte, results []flowserve.Result)

// timeArms measures both arms of an experiment over the identical key
// sequence (every pass replays the same loadgen.Caller seed). Each arm gets
// a warm-up pass, then the timed passes run INTERLEAVED in ABBA order —
// A,B then B,A, alternating — so a background-noise episode (GC, cron, a
// co-tenant burst) lands on both arms instead of biasing whichever ran
// second, and neither arm systematically enjoys the first slot after
// warm-up; the fastest pass per arm is kept, the standard way to cut
// scheduler noise out of a single-goroutine measurement. Every result is
// verified by the loadgen oracle of a read-only population; a miss or wrong
// value is a hard error, so a broken arm can never "win" by skipping work.
func timeArms(pop *loadgen.Population, cfg Config, seed uint64, armA, armB arm) (SeedResult, error) {
	oracle := loadgen.NewOracle(pop, false)
	pass := func(serve arm, ops int64) (time.Duration, error) {
		c := pop.NewCaller(oracle, seed^0x48595054, cfg.Batch) // "HYPT"
		var elapsed time.Duration
		for done := int64(0); done < ops; done += int64(cfg.Batch) {
			c.Draw(len(pop.Keys))
			t0 := time.Now()
			serve(c.Keys, c.Results)
			elapsed += time.Since(t0)
			if _, err := c.Verify(); err != nil {
				return 0, err
			}
		}
		return elapsed, nil
	}

	arms := [2]arm{armA, armB}
	warm := max(cfg.Ops/10, int64(cfg.Batch))
	for _, serve := range arms {
		if _, err := pass(serve, warm); err != nil {
			return SeedResult{}, err
		}
	}
	var best [2]time.Duration
	for r := 0; r < cfg.Repeats; r++ {
		for k := range arms {
			i := (k + r) % 2 // A,B on even repeats, B,A on odd
			d, err := pass(arms[i], cfg.Ops)
			if err != nil {
				return SeedResult{}, err
			}
			if best[i] == 0 || d < best[i] {
				best[i] = d
			}
		}
	}
	ops := float64(cfg.Ops)
	return SeedResult{
		ANsPerOp: float64(best[0].Nanoseconds()) / ops,
		BNsPerOp: float64(best[1].Nanoseconds()) / ops,
	}, nil
}
