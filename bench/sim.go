package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"runtime"
	"strings"
	"time"

	"halo/internal/experiments"
	"halo/internal/runner"
	"halo/internal/stats"
)

const simWorkload = "sim-quick"

// minSimPasses is how many serial passes a sim-quick run measures at least,
// even when one pass outlasts the requested seconds.
const minSimPasses = 2

// simPass is one serial pass over the registry at QuickConfig: one
// runner.RunDoc call per entry (Workers: 1), so every experiment has its own
// host time. The simulator takes QuickConfig's own seed — the serving seed
// never reaches it — so the document must be identical on every pass of
// every run.
type simPass struct {
	hostS []float64       // per registry entry, in registry order
	wallS float64         // the whole pass, the loop around the entries included
	doc   *stats.Document // the entries' documents, joined in registry order
	data  []byte          // doc, encoded
}

func runSimPass(registry []experiments.Runner) (*simPass, error) {
	p := &simPass{doc: &stats.Document{}}
	start := time.Now()
	for _, r := range registry {
		t := time.Now()
		doc, err := runner.RunDoc(runner.Options{Workers: 1}, experiments.QuickConfig(), []experiments.Runner{r}, io.Discard)
		if err != nil {
			return nil, err
		}
		p.hostS = append(p.hostS, time.Since(t).Seconds())
		p.doc.Schema, p.doc.Quick, p.doc.Seed = doc.Schema, doc.Quick, doc.Seed
		p.doc.Experiments = append(p.doc.Experiments, doc.Experiments...)
	}
	p.wallS = time.Since(start).Seconds()
	var err error
	p.data, err = stats.Encode(p.doc)
	return p, err
}

// runSim is the sim-quick workload: serial passes of every registry runner.
// All times are host time; anything read out of the document is a simulated
// quantity and is named as such.
func runSim(o runOpts) (*runResult, error) {
	res := newRunResult(simWorkload, o)

	// Set-up is the registry plus one pass: it warms the heap and fixes the
	// document every measured pass must equal.
	setupStart := time.Now()
	registry := experiments.Registry()
	ref, err := runSimPass(registry)
	if err != nil {
		return nil, err
	}
	res.set("setup_s", time.Since(setupStart).Seconds())
	res.attempted++
	same := func(what string, data []byte) {
		res.attempted++
		if !bytes.Equal(data, ref.data) {
			res.failed++
			res.note("%s: halo-stats/v1 document differs from the set-up pass", what)
		}
	}

	// Measured passes. The box slows for seconds at a time and never speeds
	// up, so the pass time reported is the sum over the experiments of each
	// one's fastest pass: a slow phase then has to cover the same experiment
	// in every pass to show.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var passes []*simPass
	for start := time.Now(); len(passes) < minSimPasses || time.Since(start).Seconds() < o.seconds; {
		p, err := runSimPass(registry)
		if err != nil {
			return nil, err
		}
		same(fmt.Sprintf("pass %d", len(passes)+1), p.data)
		passes = append(passes, p)
	}
	runtime.ReadMemStats(&m1)
	var hostS, inRunners, inPasses float64
	var wallS []float64
	for i, r := range registry {
		best := passes[0].hostS[i]
		for _, p := range passes[1:] {
			best = min(best, p.hostS[i])
		}
		hostS += best
		res.set("experiments."+r.ID+".host_s", best)
	}
	for _, p := range passes {
		wallS = append(wallS, p.wallS)
		inPasses += p.wallS
		for _, s := range p.hostS {
			inRunners += s
		}
	}
	res.set("sim_passes_per_s", 1/hostS)
	res.note("%d passes took %.3g s; sim.doc_crc32 %d", len(passes), wallS, crc32.ChecksumIEEE(ref.data))
	if !o.traced {
		return res, nil
	}

	n := float64(len(passes))
	res.set("sim_host_s", hostS)
	res.set("loadgen.self_share", 1-inRunners/inPasses)
	res.set("sim.allocs", float64(m1.Mallocs-m0.Mallocs)/n)
	res.set("sim.alloc_mb", float64(m1.TotalAlloc-m0.TotalAlloc)/n/(1<<20))
	res.set("sim.doc_crc32", float64(crc32.ChecksumIEEE(ref.data)))

	// Workers: 2 runs the registry as halobench -parallel 2 would: one RunDoc.
	start := time.Now()
	doc2, err := runner.RunDoc(runner.Options{Workers: 2}, experiments.QuickConfig(), registry, io.Discard)
	if err != nil {
		return nil, err
	}
	par2S := time.Since(start).Seconds()
	data2, err := stats.Encode(doc2)
	if err != nil {
		return nil, err
	}
	same("Workers: 2 pass", data2)
	res.set("runner.parallel2.host_s", par2S)
	res.set("runner.parallel2.speedup", hostS/par2S)

	b, nb, err := fig9Speedups(ref.doc)
	if err != nil {
		return nil, err
	}
	res.set("sim.fig9.haloB_speedup", b)
	res.set("sim.fig9.haloNB_speedup", nb)
	res.set("proc.rss_peak_mb", readProc().rssPeakMB)
	res.note("simulated (model outputs): peak Figure 9 speedup over software %.2fx blocking, %.2fx non-blocking; the paper reports up to 3.3x (EXPERIMENTS.md)", b, nb)

	// The last pass as spans: the pass is the root, each experiment a child.
	last := passes[len(passes)-1]
	spans := []span{{ID: 1, Req: 1, Name: spanCall, End: int64(last.wallS * 1e9)}}
	var at float64
	for i, r := range registry {
		spans = append(spans, span{ID: uint64(i + 2), Parent: 1, Req: 1, Name: "experiments." + r.ID,
			Start: int64(at * 1e9), End: int64((at + last.hostS[i]) * 1e9)})
		at += last.hostS[i]
	}
	res.traces = append(res.traces, workloadTrace{Workload: simWorkload, Seed: o.seed, Spans: spans})
	return res, nil
}

// fig9Speedups reads the simulated Figure 9 sweep out of the document and
// returns the best software÷HALO cycles-per-lookup ratio over the table
// sizes, for the blocking and the non-blocking instruction.
func fig9Speedups(doc *stats.Document) (blocking, nonBlocking float64, err error) {
	e := doc.Experiment("fig9")
	if e == nil {
		return 0, 0, fmt.Errorf("sim: no fig9 experiment in the document")
	}
	cycles := make(map[string]float64, len(e.Points))
	for _, p := range e.Points {
		var v float64
		if err := json.Unmarshal(p.Row, &v); err != nil {
			return 0, 0, fmt.Errorf("sim: fig9 point %q: %w", p.Label, err)
		}
		cycles[p.Label] = v
	}
	for label, sw := range cycles {
		point, ok := strings.CutPrefix(label, string(experiments.ModeSoftware)+"/")
		if !ok {
			continue
		}
		if c := cycles[string(experiments.ModeHaloB)+"/"+point]; c > 0 {
			blocking = max(blocking, sw/c)
		}
		if c := cycles[string(experiments.ModeHaloNB)+"/"+point]; c > 0 {
			nonBlocking = max(nonBlocking, sw/c)
		}
	}
	if blocking == 0 || nonBlocking == 0 {
		return 0, 0, fmt.Errorf("sim: fig9 document has no software/HALO pair")
	}
	return blocking, nonBlocking, nil
}
