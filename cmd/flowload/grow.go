package main

import (
	"fmt"
	"os"
	"runtime"
	"sync/atomic"

	"halo/internal/benchjson"
	"halo/internal/flowserve"
	"halo/internal/loadgen"
	"halo/internal/stats"
	"halo/internal/trafficgen"
)

// The -grow workload measures lookup latency while the table is actively
// resizing. It takes loadgen's grow-episode table — sized so the flow
// population forces loadgen.GrowDoublings shard doublings, auto-grow on, a
// prefix that fits the initial capacity installed — and runs two phases
// against it:
//
//   - migration phase: readers serve Zipf lookups over the installed prefix
//     while a grower goroutine floods in the rest of the population, tripping
//     doubling after doubling; batch latencies observed while a shard is
//     mid-migration land in the migration histogram;
//   - steady phase: migration fully drained, the same readers serve the full
//     population while the same goroutine, now a churn writer, updates flows
//     in place at the grower's pace — the baseline the migration tail is
//     compared against. Both phases carry exactly one writer, so the p99
//     ratio isolates the resize cost (two-region probes, migration-step
//     seqlock windows) instead of conflating it with writer contention (on
//     one core: scheduling) that only one arm pays.
//
// Every key a reader draws is already installed and never deleted, so the
// oracle excuses nothing: any miss or wrong value is a hard error. With
// -check the point also gates served == issued (the flowserve.lookups
// ledger), >= GrowDoublings grows per shard, and migration-p99 <=
// loadgen.GrowP99Bound x steady-p99 — the bounded-pause claim of DESIGN.md
// §12 as an executable assertion.

// runGrowSweep runs the grow point for every shard count.
func runGrowSweep(cfg sweepConfig, shardCounts []int) error {
	pop := loadgen.NewPopulation(cfg.flows, trafficgen.Zipf, cfg.seed)
	fmt.Printf("%-44s %10s %12s %12s %12s %7s %7s\n",
		"point", "lookups", "Mlookups/s", "mig-p99-us", "std-p99-us", "ratio", "grows")
	for _, sc := range shardCounts {
		name := fmt.Sprintf("FlowServeGrow/mix=zipf/shards=%d/doublings=%d", sc, loadgen.GrowDoublings)
		if err := runGrowPoint(cfg, pop, name, sc); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}

func runGrowPoint(cfg sweepConfig, pop *loadgen.Population, name string, sc int) error {
	tbl, prefix, err := pop.NewGrowTable(sc)
	if err != nil {
		return err
	}
	snapBefore := stats.NewSnapshot()
	tbl.CollectInto(snapBefore)

	// installed is the reader-visible high-water mark: flows [0,installed)
	// are inserted and never removed, so lookups drawn below it must hit.
	var installed atomic.Int64
	installed.Store(int64(prefix))
	phase := load{
		pop:      pop,
		oracle:   loadgen.NewOracle(pop, false),
		workers:  cfg.workers,
		batch:    cfg.batch,
		seed:     cfg.seed,
		reader:   func() flowserve.Reader { return tbl.NewPinnedReader() },
		limit:    func() int { return int(installed.Load()) },
		resizing: tbl.Resizing,
	}

	// One writer goroutine spans both phases: it floods the rest of the
	// population in, drains any in-flight migration so the steady phase
	// starts from a clean single-region state, then updates flows in place
	// (same value, so read verification still holds) at the same pace.
	var (
		grown, done atomic.Bool
		writerErr   = make(chan error, 1)
	)
	go func() {
		defer grown.Store(true)
		for i := prefix; i < len(pop.Keys); i++ {
			if err := tbl.Insert(pop.Keys[i], loadgen.Value(i)); err != nil {
				writerErr <- fmt.Errorf("grow insert %d (capacity %d): %w", i, tbl.Capacity(), err)
				return
			}
			installed.Store(int64(i + 1))
			if i%256 == 0 {
				runtime.Gosched()
			}
		}
		for tbl.ResizeStep(64) {
			runtime.Gosched()
		}
		grown.Store(true)
		for i := 0; !done.Load(); i++ {
			fi := i % len(pop.Keys)
			if !tbl.Update(pop.Keys[fi], loadgen.Value(fi)) {
				writerErr <- fmt.Errorf("steady churn update %d: key missing", fi)
				return
			}
			if i%256 == 0 {
				runtime.Gosched()
			}
		}
		writerErr <- nil
	}()
	phase.stop = func(int64) bool { return grown.Load() }
	mig, err := phase.run()
	var steady loadResult
	if err == nil {
		phase.stop = func(claimed int64) bool { return claimed > cfg.ops }
		steady, err = phase.run()
	}
	done.Store(true)
	if werr := <-writerErr; err == nil {
		err = werr
	}
	if err != nil {
		return err
	}

	snapAfter := stats.NewSnapshot()
	tbl.CollectInto(snapAfter)
	delta := func(name string) uint64 { return snapAfter.Counters[name] - snapBefore.Counters[name] }

	issued := mig.lookups + steady.lookups
	served := int64(delta("flowserve.lookups"))
	grows := int64(delta("flowserve.grows"))
	migP99 := mig.migHist.Quantile(0.99)
	stdP99 := steady.hist.Quantile(0.99)
	ratio := 0.0
	if stdP99 > 0 {
		ratio = float64(migP99) / float64(stdP99)
	}
	totalSec := mig.elapsed.Seconds() + steady.elapsed.Seconds()
	mlps := float64(issued) / totalSec / 1e6
	fmt.Printf("%-44s %10d %12.2f %12.1f %12.1f %7.2f %7d\n",
		name, issued, mlps,
		float64(migP99)/1e3/float64(cfg.batch),
		float64(stdP99)/1e3/float64(cfg.batch),
		ratio, grows)
	fmt.Fprintf(os.Stderr,
		"  %s: issued %d served %d; %d migration batches, %d steady; pause p99 %dns; %d migrated keys\n",
		name, issued, served, mig.migHist.Count(), steady.hist.Count(),
		snapAfter.Counters["flowserve.resize.pause_p99_ns"], delta("flowserve.resize.migrated_keys"))

	if cfg.check {
		if served != issued {
			return fmt.Errorf("check failed: lookup ledger off by %d (issued %d, served %d)",
				served-issued, issued, served)
		}
		if grows < int64(sc)*loadgen.GrowDoublings {
			return fmt.Errorf("check failed: %d grows across %d shards, want >= %d doublings each",
				grows, sc, loadgen.GrowDoublings)
		}
		if mig.migHist.Count() == 0 {
			return fmt.Errorf("check failed: no batches observed while a migration was in flight")
		}
		if stdP99 == 0 || ratio > loadgen.GrowP99Bound {
			return fmt.Errorf("check failed: migration p99 %dns is %.2fx steady p99 %dns (bound %.2fx)",
				migP99, ratio, stdP99, loadgen.GrowP99Bound)
		}
		fmt.Fprintf(os.Stderr, "  check: ledger balanced, %d grows, migration p99 %.2fx steady (bound %.2fx)\n",
			grows, ratio, loadgen.GrowP99Bound)
	}

	cfg.doc.Benchmarks = append(cfg.doc.Benchmarks, benchjson.Benchmark{
		Name:       name,
		Procs:      cfg.workers,
		Iterations: issued,
		Metrics: map[string]float64{
			"ns/op":                   1e9 * totalSec / float64(issued),
			"lookups/sec":             float64(issued) / totalSec,
			"batch":                   float64(cfg.batch),
			"migration-p50-batch-ns":  float64(mig.migHist.Quantile(0.50)),
			"migration-p99-batch-ns":  float64(migP99),
			"migration-p999-batch-ns": float64(mig.migHist.Quantile(0.999)),
			"steady-p50-batch-ns":     float64(steady.hist.Quantile(0.50)),
			"steady-p99-batch-ns":     float64(stdP99),
			"steady-p999-batch-ns":    float64(steady.hist.Quantile(0.999)),
			"p99-ratio":               ratio,
			"grows":                   float64(grows),
			"migrated-keys":           float64(delta("flowserve.resize.migrated_keys")),
			"migrated-buckets":        float64(delta("flowserve.resize.migrated_buckets")),
			"resize-steps":            float64(delta("flowserve.resize.steps")),
			"resize-stalls":           float64(delta("flowserve.resize.stalls")),
			"pause-p50-ns":            float64(snapAfter.Counters["flowserve.resize.pause_p50_ns"]),
			"pause-p99-ns":            float64(snapAfter.Counters["flowserve.resize.pause_p99_ns"]),
			"pause-max-ns":            float64(snapAfter.Counters["flowserve.resize.pause_max_ns"]),
		},
	})
	return nil
}
