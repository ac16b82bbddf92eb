// Package runner fans experiment sweep points out across a worker pool.
//
// Every experiment in internal/experiments decomposes into hermetic sweep
// points (see experiments.Sweep): each point builds its own platform, so
// points can run on any goroutine in any order. The pool here exploits
// that: it shards all points of all requested experiments across N
// workers, stores each row at its point index, and renders experiments in
// registry order as they complete — so the output is byte-identical to
// running each registry entry's Runner.Run in turn, regardless of worker
// count or scheduling.
//
// Verify mode makes the determinism contract executable: every point runs
// twice — once in the pool, once serially on the coordinating goroutine —
// and any divergence in the row values (which embed simulated cycle counts)
// or in the point's component snapshot fails the run.
package runner

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"halo/internal/experiments"
	"halo/internal/stats"
)

// Options configure a pool run.
type Options struct {
	// Workers is the number of pool goroutines; <=0 means GOMAXPROCS.
	Workers int
	// Verify re-runs every point serially on the coordinating goroutine
	// and fails the run on any divergence from the pooled result.
	Verify bool
}

func (o Options) workers() int {
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

// expState tracks one experiment's in-flight points. rows and snaps are
// indexed by Point.Index; done closes when the last point lands so the
// renderer can stream experiments in order while later ones still compute.
type expState struct {
	points []experiments.Point
	rows   []any
	snaps  []*stats.Snapshot
	errs   []error
	remain int
	done   chan struct{}
}

type task struct {
	exp   int
	point experiments.Point
}

// Run executes every sweep point of every runner on a shared worker pool
// and writes the rendered experiments to w in input order, streaming each
// as soon as its points complete. With opt.Verify it re-runs each point
// serially and compares. The error aggregates every point panic and every
// verify divergence; experiments with failures are not rendered.
func Run(opt Options, cfg experiments.Config, runners []experiments.Runner, w io.Writer) error {
	_, err := run(opt, cfg, runners, w)
	return err
}

// run is Run's body; it additionally returns the per-experiment states so
// RunDoc can assemble the stats document from the completed rows.
func run(opt Options, cfg experiments.Config, runners []experiments.Runner, w io.Writer) ([]*expState, error) {
	states := make([]*expState, len(runners))
	var tasks []task
	for i, r := range runners {
		pts := r.Sweep.Points(cfg)
		states[i] = &expState{
			points: pts,
			rows:   make([]any, len(pts)),
			snaps:  make([]*stats.Snapshot, len(pts)),
			remain: len(pts),
			done:   make(chan struct{}),
		}
		if len(pts) == 0 {
			close(states[i].done)
		}
		for _, p := range pts {
			tasks = append(tasks, task{exp: i, point: p})
		}
	}

	var mu sync.Mutex
	queue := make(chan task)
	var wg sync.WaitGroup
	for n := opt.workers(); n > 0; n-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range queue {
				st := states[t.exp]
				row, snap, err := runPoint(runners[t.exp], cfg, t.point)
				mu.Lock()
				if err != nil {
					st.errs = append(st.errs, err)
				}
				st.rows[t.point.Index] = row
				st.snaps[t.point.Index] = snap
				st.remain--
				if st.remain == 0 {
					close(st.done)
				}
				mu.Unlock()
			}
		}()
	}
	go func() {
		for _, t := range tasks {
			queue <- t
		}
		close(queue)
	}()

	// Stream-render in input order; experiment i+1 keeps computing while
	// experiment i renders.
	var failures []error
	for i, r := range runners {
		<-states[i].done // every write to the state happened before done closed
		st := states[i]
		errs := st.errs
		if opt.Verify && len(errs) == 0 {
			errs = verifyExperiment(r, cfg, st)
		}
		if len(errs) > 0 {
			failures = append(failures, errs...)
			continue
		}
		fmt.Fprintf(w, "### %s — %s\n\n", r.ID, r.Paper)
		r.Sweep.Render(cfg, st.rows, w)
	}
	wg.Wait()
	return states, errors.Join(failures...)
}

// RunDoc executes the runners like Run (rendered tables still stream to w)
// and additionally returns the machine-readable stats document: every
// point's row marshalled verbatim, the component snapshot its run returned,
// and per-experiment merged snapshots. The document depends only on (cfg,
// runners) — never on worker count or scheduling — so serial and pooled
// runs encode to identical bytes.
func RunDoc(opt Options, cfg experiments.Config, runners []experiments.Runner, w io.Writer) (*stats.Document, error) {
	states, err := run(opt, cfg, runners, w)
	if err != nil {
		return nil, err
	}
	doc := &stats.Document{Schema: stats.SchemaVersion, Quick: cfg.Quick, Seed: cfg.Seed}
	for i, r := range runners {
		st := states[i]
		ed := stats.ExperimentDoc{ID: r.ID, Paper: r.Paper, Points: []stats.PointDoc{}}
		merged := stats.NewSnapshot()
		for j, p := range st.points {
			row, err := json.Marshal(st.rows[j])
			if err != nil {
				return nil, fmt.Errorf("runner: marshalling %s point %q row: %w", r.ID, p.Label, err)
			}
			ed.Points = append(ed.Points, stats.PointDoc{Label: p.Label, Row: row, Snapshot: st.snaps[j]})
			merged.Merge(st.snaps[j])
		}
		if !merged.Empty() {
			ed.Snapshot = merged
		}
		doc.Experiments = append(doc.Experiments, ed)
	}
	return doc, nil
}

// verifyExperiment recomputes every point serially and compares it with
// the pooled row and snapshot. Rows are plain pointer-free values, so their
// %#v rendering (simulated cycle counts included) is a faithful
// serialization, and a snapshot is compared in its document encoding: any
// scheduling-dependent behaviour shows up as a diff.
func verifyExperiment(r experiments.Runner, cfg experiments.Config, st *expState) []error {
	var errs []error
	for i, p := range st.points {
		row, snap, err := runPoint(r, cfg, p)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		want := fmt.Sprintf("%#v", row)
		got := fmt.Sprintf("%#v", st.rows[i])
		if got != want {
			errs = append(errs, fmt.Errorf(
				"experiment %s point %q: pooled result diverges from serial\n  serial: %s\n  pooled: %s",
				r.ID, p.Label, want, got))
		}
		// A snapshot's encoding cannot fail: counters are integers and
		// Histogram.MarshalJSON returns no error.
		wantSnap, _ := json.Marshal(snap)
		gotSnap, _ := json.Marshal(st.snaps[i])
		if string(gotSnap) != string(wantSnap) {
			errs = append(errs, fmt.Errorf(
				"experiment %s point %q: pooled snapshot diverges from serial\n  serial: %s\n  pooled: %s",
				r.ID, p.Label, wantSnap, gotSnap))
		}
	}
	return errs
}

// runPoint executes one sweep point, converting panics into errors so one
// bad point cannot take the pool down.
func runPoint(r experiments.Runner, cfg experiments.Config, p experiments.Point) (row any, snap *stats.Snapshot, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("experiment %s point %q panicked: %v", r.ID, p.Label, rec)
		}
	}()
	row, snap = r.Sweep.RunPoint(cfg, p)
	return row, snap, nil
}

// Map runs fn over items on up to `workers` goroutines (<=0 means
// GOMAXPROCS) and returns the results in input order. It is the pool's
// primitive for callers outside the experiment registry, e.g. running
// several engine configurations of a switch simulation concurrently.
func Map[T, R any](workers int, items []T, fn func(i int, item T) R) []R {
	n := min(Options{Workers: workers}.workers(), len(items))
	out := make([]R, len(items))
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= len(items) {
					return
				}
				out[i] = fn(i, items[i])
			}
		}()
	}
	wg.Wait()
	return out
}
