package runner_test

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"testing"

	"halo/internal/experiments"
	"halo/internal/runner"
	"halo/internal/stats"
)

// cheapRunners picks real registry experiments that are fast at quick
// config, so pool-vs-serial comparisons stay affordable in -race runs.
func cheapRunners(t *testing.T) []experiments.Runner {
	t.Helper()
	var rs []experiments.Runner
	for _, id := range []string{"table4", "updates", "fig8"} {
		r, ok := experiments.Find(id)
		if !ok {
			t.Fatalf("experiment %q missing from registry", id)
		}
		rs = append(rs, r)
	}
	return rs
}

// TestPoolMatchesSerial is the heart of the harness: pooled output must be
// byte-identical to the serial path for real experiments.
func TestPoolMatchesSerial(t *testing.T) {
	t.Parallel()
	cfg := experiments.QuickConfig()
	runners := cheapRunners(t)

	var serial strings.Builder
	for _, r := range runners {
		fmt.Fprintf(&serial, "### %s — %s\n\n", r.ID, r.Paper)
		r.Run(cfg, &serial)
	}

	for _, workers := range []int{1, 3, 8} {
		var pooled strings.Builder
		if err := runner.Run(runner.Options{Workers: workers}, cfg, runners, &pooled); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if pooled.String() != serial.String() {
			t.Errorf("workers=%d: pooled output differs from serial", workers)
		}
	}
}

// TestVerifyPassesOnRealExperiments drives the -verify mode end to end.
func TestVerifyPassesOnRealExperiments(t *testing.T) {
	t.Parallel()
	cfg := experiments.QuickConfig()
	err := runner.Run(runner.Options{Workers: 4, Verify: true}, cfg, cheapRunners(t), io.Discard)
	if err != nil {
		t.Fatalf("verify run failed: %v", err)
	}
}

// fakeSweep builds a sweep of n points whose rows come from run and which
// collect no snapshot.
func fakeSweep(n int, run func(i int) any) experiments.Sweep {
	return experiments.Sweep{
		Points: func(cfg experiments.Config) []experiments.Point {
			pts := make([]experiments.Point, n)
			for i := range pts {
				pts[i] = experiments.Point{Index: i, Label: fmt.Sprintf("p%d", i)}
			}
			return pts
		},
		RunPoint: func(cfg experiments.Config, p experiments.Point) (any, *stats.Snapshot) {
			return run(p.Index), nil
		},
		Render: func(cfg experiments.Config, rows []any, w io.Writer) {
			for _, r := range rows {
				fmt.Fprintf(w, "%v\n", r)
			}
		},
	}
}

// TestRenderOrderPreserved: rows land at their point index and experiments
// render in input order, whatever the scheduling.
func TestRenderOrderPreserved(t *testing.T) {
	t.Parallel()
	var runners []experiments.Runner
	for e := 0; e < 5; e++ {
		id := fmt.Sprintf("exp%d", e)
		runners = append(runners, experiments.Runner{
			ID: id, Paper: "fake",
			Sweep: fakeSweep(7, func(i int) any { return fmt.Sprintf("%s-row%d", id, i) }),
		})
	}
	var want strings.Builder
	for _, r := range runners {
		fmt.Fprintf(&want, "### %s — %s\n\n", r.ID, r.Paper)
		for i := 0; i < 7; i++ {
			fmt.Fprintf(&want, "%s-row%d\n", r.ID, i)
		}
	}
	for _, workers := range []int{1, 2, 16} {
		var got strings.Builder
		if err := runner.Run(runner.Options{Workers: workers}, experiments.QuickConfig(), runners, &got); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got.String() != want.String() {
			t.Errorf("workers=%d:\n got:\n%s\nwant:\n%s", workers, got.String(), want.String())
		}
	}
}

// TestVerifyCatchesNondeterminism: a point whose row, or only whose
// snapshot, depends on run count must fail verify mode.
func TestVerifyCatchesNondeterminism(t *testing.T) {
	t.Parallel()
	var rowCalls, snapCalls atomic.Int64
	badRow := fakeSweep(3, func(i int) any {
		if i == 1 {
			return rowCalls.Add(1) // differs every execution
		}
		return int64(i)
	})
	badSnap := fakeSweep(3, func(i int) any { return int64(i) })
	badSnap.RunPoint = func(cfg experiments.Config, p experiments.Point) (any, *stats.Snapshot) {
		snap := stats.NewSnapshot()
		snap.Add("fake.runs", 1)
		if p.Index == 1 {
			snap.Add("fake.runs", uint64(snapCalls.Add(1))) // differs every execution
		}
		return int64(p.Index), snap
	}
	for _, bad := range []experiments.Runner{
		{ID: "bad-row", Paper: "fake", Sweep: badRow},
		{ID: "bad-snapshot", Paper: "fake", Sweep: badSnap},
	} {
		var out strings.Builder
		err := runner.Run(runner.Options{Workers: 2, Verify: true}, experiments.QuickConfig(),
			[]experiments.Runner{bad}, &out)
		if err == nil {
			t.Fatalf("%s: verify mode missed a nondeterministic point", bad.ID)
		}
		if !strings.Contains(err.Error(), `point "p1"`) || strings.Contains(err.Error(), `point "p0"`) {
			t.Errorf("%s: error does not name just the diverging point: %v", bad.ID, err)
		}
		if out.Len() != 0 {
			t.Errorf("%s: diverging experiment was rendered anyway:\n%s", bad.ID, out.String())
		}
	}
}

// TestPanicBecomesError: a panicking point fails its experiment but the
// pool survives and later experiments still render.
func TestPanicBecomesError(t *testing.T) {
	t.Parallel()
	runners := []experiments.Runner{
		{ID: "boom", Paper: "fake", Sweep: fakeSweep(3, func(i int) any {
			if i == 2 {
				panic("synthetic failure")
			}
			return i
		})},
		{ID: "fine", Paper: "fake", Sweep: fakeSweep(2, func(i int) any { return i })},
	}
	var out strings.Builder
	err := runner.Run(runner.Options{Workers: 4}, experiments.QuickConfig(), runners, &out)
	if err == nil {
		t.Fatal("panic did not surface as an error")
	}
	if !strings.Contains(err.Error(), "synthetic failure") {
		t.Errorf("error lost the panic value: %v", err)
	}
	if strings.Contains(out.String(), "### boom") {
		t.Error("failed experiment was rendered")
	}
	if !strings.Contains(out.String(), "### fine") {
		t.Error("healthy experiment after a failure was not rendered")
	}
}

// TestZeroPointExperiment: an empty sweep renders (header + empty body)
// without deadlocking the completion signalling.
func TestZeroPointExperiment(t *testing.T) {
	t.Parallel()
	empty := experiments.Runner{ID: "empty", Paper: "fake",
		Sweep: fakeSweep(0, func(i int) any { return nil })}
	var out strings.Builder
	if err := runner.Run(runner.Options{Workers: 2}, experiments.QuickConfig(),
		[]experiments.Runner{empty}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "### empty") {
		t.Error("empty experiment header missing")
	}
}

// TestRunDocDeterministic: the stats document must encode to identical
// bytes at any worker count, validate against its schema, and actually
// carry component snapshots.
func TestRunDocDeterministic(t *testing.T) {
	t.Parallel()
	cfg := experiments.QuickConfig()
	runners := cheapRunners(t)
	hy, ok := experiments.Find("hybrid")
	if !ok {
		t.Fatal("hybrid experiment missing from registry")
	}
	runners = append(runners, hy)

	var ref []byte
	for _, workers := range []int{1, 4} {
		doc, err := runner.RunDoc(runner.Options{Workers: workers}, cfg, runners, io.Discard)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		data, err := stats.Encode(doc)
		if err != nil {
			t.Fatalf("workers=%d: encode: %v", workers, err)
		}
		if _, err := stats.Validate(data); err != nil {
			t.Fatalf("workers=%d: document does not validate: %v", workers, err)
		}
		if ref == nil {
			ref = data
		} else if !bytes.Equal(ref, data) {
			t.Errorf("workers=%d: document bytes differ from serial run", workers)
		}
	}

	doc, err := stats.Decode(ref)
	if err != nil {
		t.Fatal(err)
	}
	withSnap := 0
	for _, e := range doc.Experiments {
		if e.Snapshot != nil {
			withSnap++
		}
	}
	if withSnap == 0 {
		t.Error("no experiment carried a merged component snapshot")
	}
}

// TestMap checks order preservation and full coverage across worker counts.
func TestMap(t *testing.T) {
	t.Parallel()
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	for _, workers := range []int{0, 1, 7, 200} {
		got := runner.Map(workers, items, func(i, v int) int { return v * 3 })
		for i, v := range got {
			if v != i*3 {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*3)
			}
		}
	}
	if got := runner.Map(4, []int(nil), func(i, v int) int { return v }); len(got) != 0 {
		t.Errorf("Map over nil slice returned %d results", len(got))
	}
}
