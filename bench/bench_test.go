package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"

	"halo/internal/flowserve"
	"halo/internal/trafficgen"
)

const specFile = "../BENCHMARK.json"

// digest fingerprints the stream (flow indexes and key bytes), so a test can
// pin "same seed, same inputs".
func (s stream) digest() uint32 {
	h := crc32.NewIEEE()
	var b [4]byte
	for i, ix := range s.idx {
		binary.LittleEndian.PutUint32(b[:], uint32(ix))
		h.Write(b[:])
		h.Write(s.keys[i])
	}
	return h.Sum32()
}

func TestStreamDigestFollowsSeed(t *testing.T) {
	digest := func(seed uint64) uint32 {
		pop := newPopulation(2000, 100, trafficgen.Zipf, mix(seed, 0))
		return pop.newStream(mix(seed, 2), 4096).digest()
	}
	if a, b := digest(7), digest(7); a != b {
		t.Fatalf("same seed gave digests %#x and %#x", a, b)
	}
	if a, b := digest(7), digest(8); a == b {
		t.Fatalf("seeds 7 and 8 gave the same digest %#x", a)
	}
}

// dropper loses one batch's first result in a thousand calls.
type dropper struct {
	flowserve.Reader
	calls atomic.Uint64
}

func (d *dropper) LookupMany(keys [][]byte, res []flowserve.Result) int {
	hits := d.Reader.LookupMany(keys, res)
	if d.calls.Add(1)%1000 == 0 && res[0].OK {
		res[0] = flowserve.Result{}
		hits--
	}
	return hits
}

func TestDroppedResultFailsTheRun(t *testing.T) {
	for _, tc := range []struct {
		name string
		wrap func(flowserve.Reader) flowserve.Reader
		code int
	}{
		{"clean", nil, 0},
		{"dropping", func(r flowserve.Reader) flowserve.Reader { return &dropper{Reader: r} }, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			args := []string{"-spec", specFile, "-workload", "table-zipf-churn", "-seconds", "0.5", "-seed", "3"}
			code := run(args, &stdout, &stderr, tc.wrap)
			if code != tc.code {
				t.Fatalf("exit code %d, want %d\n%s", code, tc.code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var got struct {
				Correct   bool
				Attempted uint64
				Failed    uint64
				Metrics   map[string]struct{ Value float64 }
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
				t.Fatalf("last line is not the result object: %v", err)
			}
			if (got.Failed > 0) != (tc.code != 0) || got.Correct != (tc.code == 0) || got.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d with exit code %d", got.Correct, got.Attempted, got.Failed, code)
			}
			// Every end-to-end metric is on the line: measured where it
			// applies to the workload, the not-measured mark where not.
			for _, name := range endToEndNames {
				v := got.Metrics[name].Value
				if v <= 0 || (v == notMeasured) != !measured(name, "table-zipf-churn") {
					t.Errorf("end-to-end metric %s = %v", name, v)
				}
			}
		})
	}
}

func TestOracleExcusesOnlyConcurrentWrites(t *testing.T) {
	pop := newPopulation(4, 0, trafficgen.Uniform, 1)
	o := newOracle(pop, true)
	idx := []int32{0, 1, 2, 3}
	s0 := make([]uint64, 4)
	o.before(idx, s0)
	// Flow 1 is rewritten during the call, flow 2 is deleted before it.
	o.state[1].Store(2<<2 | kindPresent)
	o.state[2].Store(1<<2 | kindAbsent)
	res := []flowserve.Result{
		{Value: stamp(0, 0), OK: true}, // settled, exact
		{Value: stamp(1, 0), OK: true}, // stale but excused: state moved
		{},                             // miss, excused: state moved
		{Value: stamp(3, 7), OK: true}, // settled, wrong generation
	}
	if failed, racy := o.check(idx, s0, res); failed != 1 || racy != 2 {
		t.Fatalf("failed=%d racy=%d, want 1 and 2", failed, racy)
	}
	// An excused slot still may not return another flow's value, and a
	// settled absent flow may not hit.
	o.before(idx, s0)
	o.state[1].Store(3<<2 | kindFlux)
	res[1] = flowserve.Result{Value: stamp(0, 0), OK: true}
	res[2] = flowserve.Result{Value: stamp(2, 0), OK: true}
	res[3] = flowserve.Result{Value: stamp(3, 0), OK: true}
	if failed, racy := o.check(idx, s0, res); failed != 2 || racy != 1 {
		t.Fatalf("failed=%d racy=%d, want 2 and 1", failed, racy)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "layer", Start: 10, End: 60},
		{ID: 3, Parent: 1, Name: "verify", Start: 50, End: 80}, // overlaps layer by 10
		{ID: 4, Parent: 2, Name: "inner", Start: 20, End: 30},
		{ID: 5, Parent: 2, Name: "inner", Start: 55, End: 70}, // runs past its parent: clipped at 60
	}
	want := map[string]int64{"root": 30, "layer": 35, "verify": 30, "inner": 25}
	got := selfTimes(spans)
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, got[name], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	vs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if q1, q3 := quartiles(vs); q1 != 2.75 || q3 != 8.25 || median(vs) != 5.5 {
		t.Fatalf("q1=%v median=%v q3=%v", q1, median(vs), q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Fatalf("two points: q1=%v q3=%v", q1, q3)
	}
}

func TestContractNamesMatchTheCommand(t *testing.T) {
	spec, err := loadSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	var listed bytes.Buffer
	if code := run([]string{"-spec", specFile, "-list"}, &listed, &listed, nil); code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	check := func(kind string, inSpec, emitted []string) {
		t.Helper()
		if strings.Join(inSpec, " ") != strings.Join(emitted, " ") {
			t.Errorf("%s differ:\n BENCHMARK.json %v\n command        %v", kind, inSpec, emitted)
		}
		for _, name := range inSpec {
			if !valid.MatchString(name) {
				t.Errorf("%s name %q is not [A-Za-z0-9_.-]+", kind, name)
			}
			if !regexp.MustCompile(`(?m)^  ` + regexp.QuoteMeta(name) + ` `).Match(listed.Bytes()) {
				t.Errorf("%s %q is not printed by -list", kind, name)
			}
		}
	}
	var ws, e2e, layer []string
	for _, w := range spec.Workloads {
		ws = append(ws, w.Name)
		// The contract says per workload which end-to-end metrics are not
		// measured there, in the words the driver's reader sees.
		var na []string
		for _, m := range spec.EndToEnd {
			if !measured(m.Name, w.Name) {
				na = append(na, m.Name)
			}
		}
		if want := "n/a here (reads 1): " + strings.Join(na, ", "); !strings.HasSuffix(w.Why, want) {
			t.Errorf("%s: why must end %q, is %q", w.Name, want, w.Why)
		}
	}
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, m.Name)
		if movesOf(m.Name) == "" {
			t.Errorf("%s: no prediction of which end-to-end metric it moves", m.Name)
		}
	}
	check("workloads", ws, workloadNames())
	check("end-to-end metrics", e2e, endToEndNames)
	check("per-layer metrics", layer, perLayerNames())
}

func TestAgree(t *testing.T) {
	spec, err := loadSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	// write stores a result set of the given workloads whose runs of metric
	// are vs; every other metric a workload measures reads 100.
	writeMetric := func(name string, seed uint64, workloads []string, metric string, vs ...float64) string {
		var runs []*runResult
		for _, w := range workloads {
			for _, v := range vs {
				r := newRunResult(w, runOpts{seed: seed})
				for _, m := range spec.EndToEnd {
					if measured(m.Name, w) {
						r.set(m.Name, 100)
					}
				}
				if measured(metric, w) {
					r.set(metric, v)
				}
				runs = append(runs, r)
			}
		}
		path := filepath.Join(dir, name)
		if err := writeResults(path, runOpts{seed: seed, seconds: 10}, len(vs), runs, spec.EndToEnd); err != nil {
			t.Fatal(err)
		}
		return path
	}
	write := func(name string, seed uint64, workloads []string, vs ...float64) string {
		return writeMetric(name, seed, workloads, "lookups_per_s", vs...)
	}
	all := workloadNames()
	// pairs counts the (workload, metric) pairs -agree has to compare.
	pairs := func(workloads []string, metrics ...string) (n int) {
		for _, w := range workloads {
			for _, m := range metrics {
				if measured(m, w) {
					n++
				}
			}
		}
		return n
	}
	lookupPairs := pairs(all, "lookups_per_s")
	a := write("a.json", 1, all, 1000, 1010, 1020)
	flat := writeMetric("flat.json", 1, all, "setup_s", 100, 100, 100)
	for _, tc := range []struct {
		name string
		a, b string
		code int
		want string
	}{
		{"same", a, write("same.json", 1, all, 1005, 1015, 1025), 0, "0 disagree, 0 unresolved"},
		{"slower", a, write("slower.json", 1, all, 600, 610, 620), 1, fmt.Sprintf("%d disagree, 0 unresolved", lookupPairs)},
		{"noisy", a, write("noisy.json", 1, all, 700, 1000, 1300), 1, fmt.Sprintf("0 disagree, %d unresolved", lookupPairs)},
		// setup_s is compared by its medians whatever its spread, as the driver does.
		{"noisy set-up", flat, writeMetric("noisy-setup.json", 1, all, "setup_s", 70, 100, 130), 0, "0 disagree, 0 unresolved"},
		{"slower set-up", flat, writeMetric("slow-setup.json", 1, all, "setup_s", 160, 165, 170), 1,
			fmt.Sprintf("%d disagree, 0 unresolved", pairs(all, "setup_s"))},
		{"other seed", a, write("seed2.json", 2, all, 1000, 1010, 1020), 2, "refusing"},
		// Nothing compared is not agreement: a workload one side lacks, or a
		// single run a side, leaves its pairs unresolved.
		{"missing workload", a, write("part.json", 1, all[1:], 1000, 1010, 1020), 1,
			fmt.Sprintf("0 disagree, %d unresolved", pairs(all[:1], endToEndNames...))},
		{"one run each", write("one-a.json", 1, all, 1000), write("one-b.json", 1, all, 1000), 1,
			fmt.Sprintf("0 disagree, %d unresolved", pairs(all, endToEndNames...))},
	} {
		var out bytes.Buffer
		code := run([]string{"-spec", specFile, "-agree", tc.a, tc.b}, &out, &out, nil)
		if code != tc.code || !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: exit %d (want %d), output lacks %q:\n%s", tc.name, code, tc.code, tc.want, out.String())
		}
	}
	// An unmeasured pair is left out of the document, not written as a number.
	data, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(string(data), "sim_passes_per_s") != 4 {
		t.Errorf("sim_passes_per_s should appear for sim-quick's median and three runs only:\n%s", data)
	}
}
