// Command halobench regenerates the tables and figures of the HALO paper
// (ISCA 2019) from the simulated platform.
//
// Usage:
//
//	halobench                     # run every experiment at paper scale
//	halobench -quick              # shrunk sweeps (seconds instead of minutes)
//	halobench -experiment fig9    # one experiment
//	halobench -parallel 8         # shard sweep points across 8 workers
//	halobench -verify             # run every point twice, fail on divergence
//	halobench -list               # list experiment IDs
//	halobench -json results.json  # also write the schema-versioned stats document
//	halobench -validate results.json  # check a stats document and exit
//	halobench -cpuprofile cpu.pprof -memprofile mem.pprof  # pprof profiles
//
// Output tables go to stdout; timing and verification status go to stderr,
// so `halobench > halobench_output.txt` is byte-reproducible. The -json
// document is likewise byte-identical across worker counts, which CI
// asserts by comparing serial and pooled runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"halo/internal/experiments"
	"halo/internal/runner"
	"halo/internal/stats"
)

func main() { os.Exit(run()) }

// run is main's body. It returns the exit code rather than calling os.Exit
// so that its deferred calls — stopping the CPU profile, writing the
// allocation profile — also run when the experiments fail, which is the run
// one most wants a profile of.
func run() int {
	var (
		quick      = flag.Bool("quick", false, "run shrunk sweeps")
		experiment = flag.String("experiment", "", "run a single experiment (see -list)")
		list       = flag.Bool("list", false, "list experiment IDs and exit")
		seed       = flag.Uint64("seed", 0x48414c4f, "workload seed")
		parallel   = flag.Int("parallel", runtime.GOMAXPROCS(0), "worker goroutines for sweep points (<= 0: GOMAXPROCS)")
		verify     = flag.Bool("verify", false, "run every point serially too and fail on divergence")
		jsonPath   = flag.String("json", "", "also write the stats document (rows + counters + histograms) to this file")
		validate   = flag.String("validate", "", "validate a stats document written by -json and exit")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile = flag.String("memprofile", "", "write an allocation profile to this file at exit")
	)
	flag.Parse()

	if *validate != "" {
		data, err := os.ReadFile(*validate)
		if err != nil {
			fmt.Fprintf(os.Stderr, "halobench: %v\n", err)
			return 1
		}
		doc, err := stats.Validate(data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "halobench: %s: %v\n", *validate, err)
			return 1
		}
		points := 0
		for _, e := range doc.Experiments {
			points += len(e.Points)
		}
		fmt.Fprintf(os.Stderr, "%s: valid %s document (%d experiments, %d points)\n",
			*validate, doc.Schema, len(doc.Experiments), points)
		return 0
	}

	if *list {
		for _, r := range experiments.Registry() {
			fmt.Printf("%-14s %s\n", r.ID, r.Paper)
		}
		return 0
	}

	cfg := experiments.DefaultConfig()
	cfg.Quick = *quick
	cfg.Seed = *seed

	runners := experiments.Registry()
	if *experiment != "" {
		r, ok := experiments.Find(*experiment)
		if !ok {
			fmt.Fprintf(os.Stderr, "halobench: unknown experiment %q (try -list)\n", *experiment)
			return 2
		}
		runners = []experiments.Runner{r}
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "halobench: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "halobench: %v\n", err)
			return 1
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "halobench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // flush accumulated allocations into the profile
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "halobench: %v\n", err)
			}
		}()
	}
	opt := runner.Options{Workers: *parallel, Verify: *verify}
	start := time.Now()
	var err error
	if *jsonPath != "" {
		var doc *stats.Document
		doc, err = runner.RunDoc(opt, cfg, runners, os.Stdout)
		if err == nil {
			var data []byte
			if data, err = stats.Encode(doc); err == nil {
				err = os.WriteFile(*jsonPath, data, 0o644)
			}
			if err == nil {
				fmt.Fprintf(os.Stderr, "stats document: %s (%d bytes)\n", *jsonPath, len(data))
			}
		}
	} else {
		err = runner.Run(opt, cfg, runners, os.Stdout)
	}
	elapsed := time.Since(start).Round(time.Millisecond)
	if err != nil {
		fmt.Fprintf(os.Stderr, "halobench: %v\n", err)
		return 1
	}
	if *verify {
		fmt.Fprintf(os.Stderr, "verify: parallel and serial results identical for every point\n")
	}
	fmt.Fprintf(os.Stderr, "(completed in %v, -parallel %d)\n", elapsed, *parallel)
	return 0
}
