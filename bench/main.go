// Command bench is the repository's one benchmark of the lookup path: six
// workloads from flowserve.Table.LookupMany up to the 3-node cluster router
// and the simulator, each run from one process by two closed-loop callers,
// with every result checked. BENCHMARK.json at the repository root names the
// workloads and metrics; README.md in this directory is the glossary.
//
//	bench -workload NAME -seed N -seconds S -trace 0|1   one run (the driver's form)
//	bench -seed N -repeats R -out results.json           every workload, R runs each
//	bench -seed N -traced                                per-layer metrics; spans go to trace.json
//	bench -list                                          workloads and metrics by name
//	bench -agree a.json b.json                           do two result sets agree?
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"halo/internal/benchjson"
	"halo/internal/experiments"
	"halo/internal/flowserve"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil)) }

// runOpts is one run's parameters.
type runOpts struct {
	seed    uint64
	seconds float64
	traced  bool
}

// runResult is one run of one workload.
type runResult struct {
	workload  string
	seed      uint64
	attempted uint64
	failed    uint64
	metrics   map[string]float64
	notes     []string
	traces    []workloadTrace
}

func newRunResult(workload string, o runOpts) *runResult {
	return &runResult{workload: workload, seed: o.seed, metrics: make(map[string]float64)}
}

func (r *runResult) set(name string, v float64) { r.metrics[name] = v }

func (r *runResult) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// runWorkload dispatches on the workload name.
func runWorkload(name string, o runOpts, wrap func(flowserve.Reader) flowserve.Reader) (*runResult, error) {
	if name == simWorkload {
		return runSim(o)
	}
	for _, ws := range servingWorkloads {
		if ws.name == name {
			return ws.run(o, wrap)
		}
	}
	return nil, fmt.Errorf("unknown workload %q (see -list)", name)
}

func workloadNames() []string {
	var names []string
	for _, ws := range servingWorkloads {
		names = append(names, ws.name)
	}
	return append(names, simWorkload)
}

// traceFile is where a traced run writes its spans, in the working directory.
const traceFile = "trace.json"

// run is the command. wrap interposes on the Reader the serving callers drive
// (nil outside tests). Exit codes: 0 clean, 1 failed operations or
// disagreement, 2 usage or environment errors.
func run(args []string, stdout, stderr io.Writer, wrap func(flowserve.Reader) flowserve.Reader) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run (default: all, in -list order)")
	specPath := fs.String("spec", "BENCHMARK.json", "the benchmark contract")
	seed := fs.Uint64("seed", 1, "workload seed: same seed, same inputs")
	seconds := fs.Float64("seconds", 0, "measured seconds per run (default: run_seconds of the contract)")
	trace := fs.Int("trace", 0, "1: traced run printing the per-layer metrics; 0: end-to-end metrics")
	traced := fs.Bool("traced", false, "same as -trace 1; spans are written to "+traceFile)
	repeats := fs.Int("repeats", 1, "runs per workload; medians over them go to -out")
	out := fs.String("out", "", "write the result set as a halo-bench/v1 document")
	list := fs.Bool("list", false, "print every workload and metric and exit")
	agree := fs.Bool("agree", false, "compare two -out documents of one commit: bench -agree a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		return fail(err)
	}
	switch {
	case *list:
		printList(stdout, spec)
		return 0
	case *agree:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-agree wants two result documents"))
		}
		return runAgree(stdout, stderr, spec, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() > 0 || *repeats < 1 {
		return fail(fmt.Errorf("unexpected arguments %q", fs.Args()))
	}
	o := runOpts{seed: *seed, seconds: *seconds, traced: *traced || *trace == 1}
	if o.seconds <= 0 {
		o.seconds = float64(spec.RunSeconds)
	}
	selected := workloadNames()
	if *workload != "" {
		selected = []string{*workload}
	}
	reported := spec.EndToEnd
	if o.traced {
		reported = spec.PerLayer
	}

	var runs []*runResult
	var traces []workloadTrace
	code := 0
	for _, name := range selected {
		for rep := 0; rep < *repeats; rep++ {
			res, err := runWorkload(name, o, wrap)
			if err != nil {
				return fail(fmt.Errorf("%s: %w", name, err))
			}
			res.set("failed_share", float64(res.failed)/float64(res.attempted))
			if res.failed > 0 {
				code = 1
			}
			runs = append(runs, res)
			traces = append(traces, res.traces...)
			printRun(stderr, res, reported)
			line, err := contractLine(res, reported, !o.traced)
			if err != nil {
				return fail(err)
			}
			fmt.Fprintln(stdout, line)
		}
	}
	if o.traced {
		if err := writeTrace(traceFile, traces); err != nil {
			return fail(err)
		}
	}
	if *out != "" {
		if err := writeResults(*out, o, *repeats, runs, reported); err != nil {
			return fail(err)
		}
	}
	return code
}

// contractLine renders one run as the JSON object the driver reads from the
// last line of standard output. Every end-to-end metric is present: measured
// and non-zero where it applies to the workload, notMeasured where it does
// not. A per-layer metric the workload does not exercise reads 0.
func contractLine(res *runResult, reported []metricSpec, endToEnd bool) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, make(map[string]value, len(reported))}
	for _, m := range reported {
		v, ok := res.metrics[m.Name]
		switch {
		case endToEnd && !measured(m.Name, res.workload):
			if ok {
				return "", fmt.Errorf("%s: %s is reported but not listed as measured there", res.workload, m.Name)
			}
			v = notMeasured
		case endToEnd && (!ok || v == 0):
			return "", fmt.Errorf("%s: end-to-end metric %s was not measured", res.workload, m.Name)
		}
		line.Metrics[m.Name] = value{v, m.Unit}
	}
	data, err := json.Marshal(line)
	return string(data), err
}

// printRun is the human-readable report: every reported metric by name with
// its unit (n/a where the metric does not apply to the workload), then the
// run's notes.
func printRun(w io.Writer, res *runResult, reported []metricSpec) {
	fmt.Fprintf(w, "== %s  seed %d  attempted %d  failed %d (failed_share %g)\n",
		res.workload, res.seed, res.attempted, res.failed, res.metrics["failed_share"])
	for _, m := range reported {
		if v, ok := res.metrics[m.Name]; ok {
			fmt.Fprintf(w, "  %-42s %16s %s\n", m.Name, strconv.FormatFloat(v, 'g', 10, 64), m.Unit)
		} else if !measured(m.Name, res.workload) {
			fmt.Fprintf(w, "  %-42s %16s\n", m.Name, "n/a")
		}
	}
	for _, n := range res.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// printList prints every workload and metric the command emits, joined with
// the contract's unit, direction and bound, and the prediction of which
// end-to-end metric each layer metric should move.
func printList(w io.Writer, spec *benchSpec) {
	why := make(map[string]string)
	for _, ws := range spec.Workloads {
		why[ws.Name] = ws.Why
	}
	fmt.Fprintln(w, "workloads:")
	for _, name := range workloadNames() {
		fmt.Fprintf(w, "  %-24s %s\n", name, why[name])
	}
	specOf := make(map[string]metricSpec)
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		specOf[m.Name] = m
	}
	fmt.Fprintln(w, "end-to-end metrics (tracing off):")
	for _, name := range endToEndNames {
		m := specOf[name]
		on := "every workload"
		if ws, listed := measuredOn[name]; listed {
			on = strings.Join(ws, ", ") + "; n/a elsewhere"
		}
		fmt.Fprintf(w, "  %-24s %-8s better %-6s bound %.2f  measured on: %s\n", name, m.Unit, m.Better, m.Bound, on)
	}
	fmt.Fprintln(w, "per-layer metrics (traced run):")
	for _, name := range perLayerNames() {
		m := specOf[name]
		fmt.Fprintf(w, "  %-42s %-8s better %-6s moves: %s\n", name, m.Unit, m.Better, movesOf(name))
	}
}

// writeResults stores the result set as a halo-bench/v1 document: one
// benchmark per run ("workload#k") and one per workload holding the medians,
// so -agree can rebuild quartiles and cmd/benchdiff can read it as is. A
// metric a workload does not report is left out, not written as a number.
func writeResults(path string, o runOpts, repeats int, runs []*runResult, reported []metricSpec) error {
	doc := &benchjson.Document{
		Schema:    benchjson.SchemaVersion,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Seeds:     []uint64{o.seed},
		Config: map[string]string{
			"seconds":    strconv.FormatFloat(o.seconds, 'g', -1, 64),
			"repeats":    strconv.Itoa(repeats),
			"traced":     strconv.FormatBool(o.traced),
			"callers":    strconv.Itoa(callers) + " closed-loop",
			"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
			"network":    "loopback sockets inside one process; no link crossed",
		},
	}
	byWorkload := make(map[string][]*runResult)
	var order []string
	for _, r := range runs {
		if byWorkload[r.workload] == nil {
			order = append(order, r.workload)
		}
		byWorkload[r.workload] = append(byWorkload[r.workload], r)
	}
	columns := append([]metricSpec{{Name: "failed", Unit: "count"}}, reported...)
	for _, name := range order {
		rs := byWorkload[name]
		med := benchjson.Benchmark{Name: name, Procs: runtime.GOMAXPROCS(0), Iterations: int64(len(rs)), Metrics: map[string]float64{}}
		var each []benchjson.Benchmark
		for k, r := range rs {
			r.metrics["failed"] = float64(r.failed)
			b := benchjson.Benchmark{Name: name + "#" + strconv.Itoa(k+1), Procs: med.Procs, Iterations: 1, Metrics: map[string]float64{}}
			for _, m := range columns {
				if v, ok := r.metrics[m.Name]; ok {
					b.Metrics[metricKey(m)] = v
				}
			}
			each = append(each, b)
		}
		for _, m := range columns {
			var vs []float64
			for _, b := range each {
				if v, ok := b.Metrics[metricKey(m)]; ok {
					vs = append(vs, v)
				}
			}
			if len(vs) > 0 {
				med.Metrics[metricKey(m)] = median(vs)
			}
		}
		doc.Benchmarks = append(append(doc.Benchmarks, med), each...)
	}
	data, err := benchjson.Encode(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// endToEndNames and perLayerNames are the metric names this command emits;
// a test pins them to BENCHMARK.json.
var endToEndNames = []string{
	"setup_s", "lookups_per_s", "writes_per_s", "mem_bytes_per_flow", "sim_passes_per_s",
}

func perLayerNames() []string {
	names := []string{
		"call_p50_us", "call_p99_us",
		"flowserve.lookup.ns_per_key", "flowserve.pinned.ns_per_key", "flowserve.lookupmany.ns_per_key",
		"flowwire.codec.ns_per_frame", "flowwire.shm.ns_per_key", "flowwire.unix.ns_per_key", "flowwire.tcp.ns_per_key",
		"flowcluster.shardmap.owner_ns_per_key", "flowcluster.route1.ns_per_key", "flowcluster.route3.ns_per_key",
		"flowwire.tcp.added_ns_per_key", "flowcluster.route1.added_ns_per_key", "flowcluster.fanout.added_ns_per_key",
		"flowserve.hit_ratio", "flowserve.retries_per_mlookup", "flowserve.lock_fallbacks_per_mlookup",
		"flowserve.displacements_per_insert", "flowserve.keys_per_batch_call",
		"flowwire.coalesce.frames_per_call", "flowwire.coalesce.keys_per_call", "flowwire.frames_per_s",
		"flowwire.client.errors", "flowwire.client.timeouts", "flowwire.client.late_replies",
		"flowwire.shm.parks_per_kframe", "flowwire.shm.doorbells_per_kframe",
		"flowcluster.subbatches_per_batch", "flowcluster.redirects_per_mlookup", "flowcluster.map_refreshes",
		"flowcluster.redirects_exhausted", "flowcluster.move_range_s", "flowcluster.mig.records_per_s",
		"proc.cpu_us_per_lookup", "proc.allocs_per_call", "proc.bytes_per_call", "proc.gc_pause_ms", "proc.rss_peak_mb",
		"loadgen.keygen_ns_per_key", "loadgen.verify_ns_per_key", "loadgen.self_share",
		"loadgen.trace_overhead_share", "loadgen.call_samples", "loadgen.lookups_per_s", "loadgen.writes_per_s",
		"sim_host_s", "runner.parallel2.host_s", "runner.parallel2.speedup",
		"sim.allocs", "sim.alloc_mb", "sim.doc_crc32", "sim.fig9.haloB_speedup", "sim.fig9.haloNB_speedup",
		"failed_share",
	}
	ids := experiments.IDs()
	sort.Strings(ids)
	for _, id := range ids {
		names = append(names, "experiments."+id+".host_s")
	}
	return names
}
