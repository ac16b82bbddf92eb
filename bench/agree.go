package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"halo/internal/benchjson"
)

// runAgree answers "do two result sets of the same commit agree?": for every
// (workload, end-to-end metric) pair the metric is measured on, it prints both
// medians with their quartiles and classifies the difference against the
// metric's own bound. A pair whose run-to-run spread exceeds the bound is
// unresolved, not equal — and so is a pair either set lacks or holds fewer
// than two runs of, since nothing was compared. setup_s alone is compared by
// its medians whatever its spread, which is the driver's rule for it: a run
// sets up a few times, where it measures a hundred windows.
// The comparison itself is benchjson's: workload-identity refusal
// (CheckComparable) and effect-size classification (Classify).
func runAgree(stdout, stderr io.Writer, spec *benchSpec, pathA, pathB string) int {
	load := func(path string) (*benchjson.Document, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		doc, err := benchjson.Decode(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return doc, nil
	}
	a, err := load(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	b, err := load(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	warnings, err := benchjson.CheckComparable(a, b)
	if err != nil {
		fmt.Fprintf(stderr, "bench: refusing to compare different workloads: %v\n", err)
		return 2
	}
	for _, w := range warnings {
		fmt.Fprintln(stderr, "bench: warning:", w)
	}

	// runsOf collects one metric's per-run values for a workload ("name#k").
	runsOf := func(doc *benchjson.Document, workload, key string) []float64 {
		var vs []float64
		for _, bm := range doc.Benchmarks {
			if v, ok := bm.Metrics[key]; ok && strings.HasPrefix(bm.Name, workload+"#") {
				vs = append(vs, v)
			}
		}
		return vs
	}
	fmt.Fprintf(stdout, "%-22s %-20s %-38s %-38s %8s %6s  %s\n",
		"workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B vs A", "bound", "verdict")
	var disagree, unresolved int
	for _, ws := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			if !measured(m.Name, ws.Name) {
				continue
			}
			va, vb := runsOf(a, ws.Name, metricKey(m)), runsOf(b, ws.Name, metricKey(m))
			if len(va) < 2 || len(vb) < 2 {
				unresolved++
				fmt.Fprintf(stdout, "%-22s %-20s %d and %d runs: UNRESOLVED (quartiles need two runs on each side)\n",
					ws.Name, m.Name, len(va), len(vb))
				continue
			}
			medA, medB := median(va), median(vb)
			th := benchjson.Thresholds{Significant: m.Bound, Equivalence: m.Bound, Regression: m.Bound}
			verdict := "agree"
			switch {
			case m.Name != "setup_s" && (spread(va) > m.Bound || spread(vb) > m.Bound):
				verdict = "UNRESOLVED (spread exceeds bound)"
				unresolved++
			case benchjson.Classify(metricKey(m), medA, medB, th) != benchjson.ClassEquivalent:
				verdict = "DISAGREE"
				disagree++
			}
			imp, _ := benchjson.Improvement(metricKey(m), medA, medB)
			fmt.Fprintf(stdout, "%-22s %-20s %-38s %-38s %+7.1f%% %6.2f  %s\n",
				ws.Name, m.Name, quartileCell(va), quartileCell(vb), imp*100, m.Bound, verdict)
		}
	}
	fmt.Fprintf(stdout, "%d disagree, %d unresolved\n", disagree, unresolved)
	if disagree+unresolved > 0 {
		return 1
	}
	return 0
}

func quartileCell(vs []float64) string {
	q1, q3 := quartiles(vs)
	return fmt.Sprintf("%.6g [%.6g, %.6g]", median(vs), q1, q3)
}
