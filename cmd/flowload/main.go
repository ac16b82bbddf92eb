// Command flowload drives the flowserve runtime with live goroutine traffic
// — the serving-side counterpart of halobench's simulated experiments. It
// installs a trafficgen flow population, then hammers it from concurrent
// workers drawing uniform or Zipf flow mixes (plus an optional churn of
// concurrent inserts/deletes), and reports throughput and batch-latency
// quantiles per sweep point.
//
// The load loop drives a flowserve.Reader/flowserve.Writer pair and does not
// care what implements them: by default an in-process *flowserve.Table
// (sweeping shard counts), with -remote a flowwire.Client speaking the wire
// protocol to a flowserved instance (sweeping connection counts). Same
// workers, same verification, same document schema either way.
//
// Usage:
//
//	flowload                                  # default local sweep (1,2,4,8 shards × uniform,zipf)
//	flowload -flows 200000 -ops 5000000       # bigger table, longer run
//	flowload -shards 1,16 -mix uniform        # specific local points
//	flowload -remote tcp://127.0.0.1:7411     # drive a flowserved over TCP
//	flowload -remote tcp://:7411 -conns 1,2,4 # sweep client connection counts
//	flowload -remote unix:///tmp/fs.sock      # drive over a unix socket
//	flowload -remote shm:///tmp/fs.sock       # drive over shared-memory rings
//	flowload -cluster tcp://:7411,tcp://:7412,tcp://:7413
//	                                          # drive a flowserved cluster through
//	                                          #   the flowcluster router, live-migrating
//	                                          #   -migrations hash ranges under load
//	flowload -rate 500000,1000000             # open loop: offer fixed rates and
//	                                          #   measure latency from intended
//	                                          #   send (coordinated-omission-safe)
//	flowload -grow -check                     # force 3 shard doublings under Zipf
//	                                          #   lookups; gate migration p99 at
//	                                          #   -growp99x (2x) of steady state
//	flowload -json BENCH_serve.json           # write the halo-bench/v1 document
//	flowload -check                           # local: fail unless max-shard uniform
//	                                          #   throughput beats 1-shard
//	                                          # remote: fail unless the server's lookup
//	                                          #   counter balances every issued key
//	                                          # cluster: the same ledger summed across
//	                                          #   every node, with ≥1 live migration
//	                                          #   in flight — zero lost or duplicated
//	                                          #   lookups across cutovers
//	flowload -smoke                           # small fast settings for CI
//
// Every lookup is verified against the installed flow population: a wrong
// value is a hard error (the concurrent analogue of halobench's -verify).
// The -json document uses the same halo-bench/v1 schema as BENCH_perf.json,
// so serving results land in CI artifacts next to the simulator benchmarks.
// Timing-derived numbers are machine-dependent; the document is an artifact,
// not a golden file.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"halo/internal/benchjson"
	"halo/internal/flowcluster"
	"halo/internal/flowserve"
	"halo/internal/flowwire"
	"halo/internal/listflag"
	"halo/internal/packet"
	"halo/internal/stats"
	"halo/internal/trafficgen"
)

func main() {
	var (
		flows    = flag.Int("flows", 100_000, "flow population size")
		mixFlag  = flag.String("mix", "uniform,zipf", "comma-separated flow mixes (uniform, zipf)")
		shardsFl = flag.String("shards", "1,2,4,8", "comma-separated shard counts to sweep (local mode)")
		connsFl  = flag.String("conns", "1,2,4", "comma-separated client connection counts to sweep (remote mode)")
		remote   = flag.String("remote", "", "flowserved endpoint (tcp://host:port, unix:///path, shm:///path); sweep -conns against it instead of local -shards")
		clusterF = flag.String("cluster", "", "comma-separated flowserved cluster endpoints; drive them through the flowcluster router")
		migrateN = flag.Int("migrations", 1, "live range migrations to run under load per cluster sweep point")
		ratesFl  = flag.String("rate", "0", "comma-separated offered lookups/sec per point (0 = closed loop)")
		workers  = flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent load-generator goroutines")
		ops      = flag.Int64("ops", 2_000_000, "total lookups per sweep point")
		batch    = flag.Int("batch", 16, "keys per LookupMany call")
		churn    = flag.Int("churn", 64, "issue one delete+reinsert per this many lookups per worker (0 = read-only)")
		seed     = flag.Uint64("seed", 0x464c4f57, "workload seed")
		jsonPath = flag.String("json", "", "write the halo-bench/v1 document to this file")
		check    = flag.Bool("check", false, "fail the scaling gate (local) or the zero-loss gate (remote)")
		smoke    = flag.Bool("smoke", false, "small fast settings for CI (overrides -flows/-ops)")
		grow     = flag.Bool("grow", false, "resize churn workload (local only): force -growdoublings shard doublings under Zipf lookups and measure migration-phase latency")
		growDbl  = flag.Int("growdoublings", 3, "shard doublings the -grow workload sizes the table to force")
		growP99x = flag.Float64("growp99x", 2.0, "-grow -check: max allowed migration-p99 / steady-p99 batch latency ratio")
	)
	flag.Parse()

	workersSet, shardsSet := false, false
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "workers":
			workersSet = true
		case "shards":
			shardsSet = true
		}
	})
	if *smoke {
		*flows = 20_000
		*ops = 400_000
		if *remote != "" || *clusterF != "" {
			// Remote smoke pays a round trip per batch; keep CI fast.
			*ops = 150_000
		}
		if !workersSet {
			// Always run with real concurrency, even on small CI boxes:
			// the point of smoke is exercising the concurrent read path.
			*workers = 4
		}
	}
	mixes, err := listflag.Enum("mix", *mixFlag, "uniform", "zipf")
	if err != nil {
		fatalf("%v", err)
	}
	shardCounts, err := listflag.PositiveInts("shards", *shardsFl)
	if err != nil {
		fatalf("%v", err)
	}
	connCounts, err := listflag.PositiveInts("conns", *connsFl)
	if err != nil {
		fatalf("%v", err)
	}
	rates, err := listflag.Ints("rate", *ratesFl)
	if err != nil {
		fatalf("%v", err)
	}
	for _, r := range rates {
		if r < 0 {
			fatalf("-rate values must be >= 0 (0 = closed loop)")
		}
	}
	if *workers < 1 || *batch < 1 || *ops < 1 || *flows < 1 {
		fatalf("-workers, -batch, -ops and -flows must be positive")
	}
	if *remote != "" && *clusterF != "" {
		fatalf("-remote and -cluster are mutually exclusive")
	}
	if (*remote != "" || *clusterF != "") && shardsSet {
		fmt.Fprintln(os.Stderr, "flowload: -shards is ignored with -remote/-cluster (shard count is fixed server-side)")
	}
	var clusterEps []flowwire.Endpoint
	if *clusterF != "" {
		if clusterEps, err = flowwire.ParseEndpoints("cluster", *clusterF); err != nil {
			fatalf("%v", err)
		}
		if *migrateN < 0 {
			fatalf("-migrations must be >= 0")
		}
	}
	var remoteEp flowwire.Endpoint
	if *remote != "" {
		if remoteEp, err = flowwire.ParseEndpoint(*remote); err != nil {
			fatalf("-remote: %v", err)
		}
	}
	if *grow {
		if *remote != "" || *clusterF != "" {
			fatalf("-grow is local-only: it drives Table.Grow/ResizeStep directly")
		}
		if *growDbl < 1 {
			fatalf("-growdoublings must be >= 1")
		}
		if *growP99x <= 0 {
			fatalf("-growp99x must be positive")
		}
	}
	// The transport is part of the workload identity: "local" for in-process
	// sweeps, else the wire transport ("cluster" for a heterogeneous node
	// set — the endpoints stamp carries each node's transport). Stamping it
	// into Config makes benchdiff refuse cross-transport comparisons (UDS vs
	// TCP loopback are different experiments even at identical sweep
	// settings).
	transport := "local"
	if *remote != "" {
		transport = remoteEp.Transport
	}
	if *clusterF != "" {
		transport = "cluster"
	}

	// Stamp the workload identity (seeds + config) into the document so
	// benchdiff refuses to compare serve artifacts produced by different
	// sweeps. Worker count is deliberately NOT config: it defaults to the
	// host's GOMAXPROCS and is recorded per benchmark as Procs instead.
	mode := "local"
	sweepList := "shards=" + *shardsFl
	mixStamp := *mixFlag
	if *remote != "" || *clusterF != "" {
		mode = "remote"
		sweepList = "conns=" + *connsFl
	}
	if *clusterF != "" {
		mode = "cluster"
	}
	if *grow {
		mode = "grow"
		mixStamp = "zipf" // the grow workload is Zipf by construction
	}
	doc := &benchjson.Document{
		Schema:    benchjson.SchemaVersion,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Seeds:     []uint64{*seed},
		Config: map[string]string{
			"tool":      "flowload",
			"mode":      mode,
			"flows":     fmt.Sprint(*flows),
			"ops":       fmt.Sprint(*ops),
			"batch":     fmt.Sprint(*batch),
			"churn":     fmt.Sprint(*churn),
			"mix":       mixStamp,
			"sweep":     sweepList,
			"transport": transport,
			"rate":      *ratesFl,
		},
		Benchmarks: []benchjson.Benchmark{},
	}
	if *grow {
		// The grow workload's identity includes its sizing knobs: documents
		// produced with different doubling counts are different experiments.
		doc.Config["grow_doublings"] = fmt.Sprint(*growDbl)
		doc.Config["grow_p99x"] = fmt.Sprint(*growP99x)
	} else {
		fmt.Printf("%-40s %10s %12s %9s %9s %9s %9s %8s\n",
			"point", "lookups", "Mlookups/s", "p50-us", "p95-us", "p99-us", "p99.9-us", "retries")
	}

	cfg := sweepConfig{
		flows:     *flows,
		mixes:     mixes,
		workers:   *workers,
		ops:       *ops,
		batch:     *batch,
		churn:     *churn,
		seed:      *seed,
		rates:     rates,
		transport: transport,
		check:     *check,
		doc:       doc,
	}
	switch {
	case *grow:
		runGrowSweep(cfg, shardCounts, *growDbl, *growP99x)
	case *clusterF != "":
		doc.Config["migrations"] = fmt.Sprint(*migrateN)
		runClusterSweep(cfg, clusterEps, connCounts, *migrateN)
	case *remote != "":
		runRemoteSweep(cfg, remoteEp, connCounts)
	default:
		runLocalSweep(cfg, shardCounts)
	}

	if *jsonPath != "" {
		data, err := benchjson.Encode(doc)
		if err != nil {
			fatalf("encode: %v", err)
		}
		if _, err := benchjson.Decode(data); err != nil {
			fatalf("self-check: emitted document does not validate: %v", err)
		}
		if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "serve document: %s (%d bytes)\n", *jsonPath, len(data))
	}
}

type sweepConfig struct {
	flows     int
	mixes     []string
	workers   int
	ops       int64
	batch     int
	churn     int
	seed      uint64
	rates     []int
	transport string
	check     bool
	doc       *benchjson.Document
}

// pointName appends the open-loop rate to a sweep point name. Closed-loop
// points keep their historical names so longitudinal diffs line up.
func pointName(base string, rate int) string {
	if rate > 0 {
		return fmt.Sprintf("%s/rate=%d", base, rate)
	}
	return base
}

// runLocalSweep builds one in-process table per (mix, shards) point and
// drives it through the serving interfaces.
func runLocalSweep(cfg sweepConfig, shardCounts []int) {
	// throughput[mix][shards] for the -check gate.
	throughput := map[string]map[int]float64{}
	for _, mix := range cfg.mixes {
		w, keys := buildWorkload(mix, cfg.flows, cfg.seed)
		for _, sc := range shardCounts {
			// ~12% slot headroom: shard assignment is by hash, so per-shard
			// occupancy varies around flows/shards.
			entries := uint64(len(keys)) + uint64(len(keys))/8 + 1024
			tbl, err := flowserve.New(flowserve.Config{
				Shards:  sc,
				Entries: entries,
				KeyLen:  packet.HeaderKeyLen,
			})
			if err != nil {
				fatalf("New: %v", err)
			}
			be := backend{r: tbl, w: tbl, reader: func() flowserve.Reader {
				return tbl.NewPinnedReader()
			}, counters: func() map[string]uint64 {
				snap := stats.NewSnapshot()
				tbl.CollectInto(snap)
				return snap.Counters
			}}
			fillNs := install(be, keys, 1)
			for _, rate := range cfg.rates {
				res := runPoint(w, keys, be, pointConfig{
					workers: cfg.workers,
					ops:     cfg.ops,
					batch:   cfg.batch,
					churn:   cfg.churn,
					seed:    cfg.seed,
					rate:    rate,
				})
				res.fillNsPerOp = fillNs
				name := pointName(fmt.Sprintf("FlowServe/mix=%s/shards=%d", mix, sc), rate)
				emit(cfg, name, res)
				if rate == 0 {
					if throughput[mix] == nil {
						throughput[mix] = map[int]float64{}
					}
					throughput[mix][sc] = res.lookupsPerSec
				}
			}
		}
	}
	if cfg.check {
		checkLocalScaling(throughput, shardCounts)
	}
}

// runRemoteSweep drives a flowserved instance: one flow population install
// per mix (shared by all -conns points), one fresh client pool per point.
// With -check it closes the ledger: every key the workers issued must appear
// in the server's flowserve.lookups counter — a lookup dropped anywhere in
// the pipeline (client pool, wire, coalescer, batch) breaks the equality.
func runRemoteSweep(cfg sweepConfig, ep flowwire.Endpoint, connCounts []int) {
	setup := dialRetry(ep, flowwire.Options{Conns: 2}, 10*time.Second)
	defer setup.Close()
	hello := setup.Hello()
	if hello.KeyLen != packet.HeaderKeyLen {
		fatalf("server key length %d, want %d (packet header keys)", hello.KeyLen, packet.HeaderKeyLen)
	}
	if hello.Capacity < uint64(cfg.flows)+uint64(cfg.flows)/8 {
		fatalf("server capacity %d too small for %d flows", hello.Capacity, cfg.flows)
	}
	// The endpoint set and the server's shard-map epoch are workload
	// identity: an artifact produced against a different topology (or after
	// a different number of cutovers) is a different experiment, and
	// benchdiff must refuse the comparison.
	cfg.doc.Config["endpoints"] = ep.String()
	cfg.doc.Config["epoch"] = fmt.Sprint(hello.Epoch)
	fmt.Fprintf(os.Stderr, "flowload: remote %s (shards=%d capacity=%d keylen=%d)\n",
		ep, hello.Shards, hello.Capacity, hello.KeyLen)

	baseline := snapCounters(setup)

	var issuedTotal int64
	var clientErrTotal uint64
	for _, mix := range cfg.mixes {
		w, keys := buildWorkload(mix, cfg.flows, cfg.seed)
		fillNs := install(backend{w: setup}, keys, 8)
		for _, nc := range connCounts {
			for _, rate := range cfg.rates {
				cl := dialRetry(ep, flowwire.Options{Conns: nc}, 10*time.Second)
				before := snapCounters(cl)
				res := runPoint(w, keys, backend{r: cl, w: cl, counters: func() map[string]uint64 {
					return counterDelta(before, snapCounters(cl))
				}}, pointConfig{
					workers: cfg.workers,
					ops:     cfg.ops,
					batch:   cfg.batch,
					churn:   cfg.churn,
					seed:    cfg.seed,
					rate:    rate,
				})
				name := pointName(fmt.Sprintf("FlowServe/remote/mix=%s/conns=%d", mix, nc), rate)
				if err := cl.Err(); err != nil {
					fatalf("%s: client transport error: %v", name, err)
				}
				res.clientErrors = cl.Counters().Errors
				clientErrTotal += res.clientErrors
				cl.Close()
				res.fillNsPerOp = fillNs
				issuedTotal += res.lookups
				emit(cfg, name, res)
			}
		}
		// Different mixes draw different flow populations; colliding keys
		// would carry stale values, so clear this mix before the next.
		uninstall(backend{w: setup}, keys, 8)
	}

	if cfg.check {
		final := snapCounters(setup)
		served := int64(final["flowserve.lookups"] - baseline["flowserve.lookups"])
		fmt.Fprintf(os.Stderr, "check: issued %d key lookups, server served %d, client errors %d\n",
			issuedTotal, served, clientErrTotal)
		if served != issuedTotal {
			fatalf("check failed: server lookup ledger off by %d (issued %d, served %d)",
				served-issuedTotal, issuedTotal, served)
		}
		// A silently-coerced transport failure would show up as a miss in
		// the workload (indistinguishable from churn); the client counter
		// makes it a hard failure instead.
		if clientErrTotal != 0 {
			fatalf("check failed: %d client transport errors were coerced into misses", clientErrTotal)
		}
		if err := setup.Err(); err != nil {
			fatalf("check failed: setup client transport error: %v", err)
		}
	}
}

// runClusterSweep drives a flowserved cluster through the flowcluster
// router — same workers, same verification, same document schema as the
// single-node remote sweep; the router is just another Reader/Writer. Per
// sweep point it live-migrates `migrations` hash ranges while the workers
// hammer the cluster, so every point exercises WRONG_SHARD redirects and at
// least one epoch-bumped cutover. With -check it closes the cluster-wide
// ledger: the flowserve.lookups counters summed across every node must
// balance every key the workers issued — a lookup lost (or double-served)
// anywhere across a cutover breaks the equality — and every migration's
// handoff ledger must have balanced (MoveRange enforces
// Enqueued == Sent == Acked before returning).
func runClusterSweep(cfg sweepConfig, eps []flowwire.Endpoint, connCounts []int, migrations int) {
	setup := dialRouterRetry(eps, flowcluster.Options{Client: flowwire.Options{Conns: 2}}, 10*time.Second)
	defer setup.Close()
	if setup.KeyLen() != packet.HeaderKeyLen {
		fatalf("cluster key length %d, want %d (packet header keys)", setup.KeyLen(), packet.HeaderKeyLen)
	}
	// Endpoint set + epoch are workload identity, exactly as in the remote
	// sweep; the epoch additionally records how many cutovers preceded the
	// run.
	cfg.doc.Config["endpoints"] = flowwire.EndpointList(eps)
	cfg.doc.Config["epoch"] = fmt.Sprint(setup.Epoch())
	fmt.Fprintf(os.Stderr, "flowload: cluster %s (epoch=%d keylen=%d)\n",
		flowwire.EndpointList(eps), setup.Epoch(), setup.KeyLen())

	baseline := clusterCounters(setup)

	var issuedTotal int64
	var routerErrTotal uint64
	migsTotal := 0
	for _, mix := range cfg.mixes {
		w, keys := buildWorkload(mix, cfg.flows, cfg.seed)
		fillNs := install(backend{w: setup}, keys, 8)
		for _, nc := range connCounts {
			for _, rate := range cfg.rates {
				rt := dialRouterRetry(eps, flowcluster.Options{Client: flowwire.Options{Conns: nc}}, 10*time.Second)
				before := clusterCounters(rt)

				// Live migrations ride along with the point's load: a mover
				// goroutine keeps cutting half-ranges over to the next node
				// while the workers run.
				stopMig := make(chan struct{})
				movedc := make(chan int, 1)
				go func() { movedc <- runMigrations(setup, migrations, stopMig) }()

				res := runPoint(w, keys, backend{r: rt, w: rt, counters: func() map[string]uint64 {
					return counterDelta(before, clusterCounters(rt))
				}}, pointConfig{
					workers: cfg.workers,
					ops:     cfg.ops,
					batch:   cfg.batch,
					churn:   cfg.churn,
					seed:    cfg.seed,
					rate:    rate,
				})
				close(stopMig)
				migsTotal += <-movedc

				name := pointName(fmt.Sprintf("FlowServe/cluster/mix=%s/conns=%d", mix, nc), rate)
				if err := rt.Err(); err != nil {
					fatalf("%s: router transport error: %v", name, err)
				}
				res.clientErrors = rt.Errors()
				routerErrTotal += res.clientErrors
				rt.Close()
				res.fillNsPerOp = fillNs
				issuedTotal += res.lookups
				emit(cfg, name, res)
			}
		}
		uninstall(backend{w: setup}, keys, 8)
	}

	if cfg.check {
		final := clusterCounters(setup)
		// A frame probed under a map that a cutover then replaced is redirected
		// and served again by the gaining node; stale_probes counts exactly
		// those extra probes, so the ledger stays exact.
		stale := int64(final["flowwire.cluster.stale_probes"] - baseline["flowwire.cluster.stale_probes"])
		served := int64(final["flowserve.lookups"]-baseline["flowserve.lookups"]) - stale
		fmt.Fprintf(os.Stderr,
			"check: issued %d key lookups, cluster served %d (+%d stale probes redirected), router errors %d, live migrations %d (final epoch %d)\n",
			issuedTotal, served, stale, routerErrTotal, migsTotal, setup.Epoch())
		if served != issuedTotal {
			fatalf("check failed: cluster lookup ledger off by %d (issued %d, served %d)",
				served-issuedTotal, issuedTotal, served)
		}
		if routerErrTotal != 0 {
			fatalf("check failed: %d router errors were coerced into misses", routerErrTotal)
		}
		if migrations > 0 && migsTotal == 0 {
			fatalf("check failed: no live migration completed under load")
		}
		if err := setup.Err(); err != nil {
			fatalf("check failed: setup router transport error: %v", err)
		}
	}
}

// snapCounters fetches one server's typed stats snapshot and returns its
// counters.
func snapCounters(cl *flowwire.Client) map[string]uint64 {
	snap, err := cl.StatsSnapshot()
	if err != nil {
		fatalf("stats: %v", err)
	}
	return snap.Counters
}

// clusterCounters snapshots the cluster-wide counter rollup (every node's
// typed stats merged, plus the router's own flowcluster.* counters).
func clusterCounters(r *flowcluster.Router) map[string]uint64 {
	snap, err := r.StatsSnapshot()
	if err != nil {
		fatalf("cluster stats: %v", err)
	}
	return snap.Counters
}

// runMigrations keeps live-migrating ranges until count moves completed or
// stop closes: it picks a split under the coordinator's current map, moves
// its lower half to the next node, and lets the cluster settle briefly. A
// failed move is fatal — MoveRange succeeding IS the zero-loss handoff
// invariant (the ledger balanced and the cutover map installed everywhere).
func runMigrations(coord *flowcluster.Router, count int, stop <-chan struct{}) (moved int) {
	for moved < count {
		select {
		case <-stop:
			return moved
		default:
		}
		m := coord.Map()
		var picked flowwire.Range
		var dst int
		found := false
		for i := range m.Splits {
			rg := flowwire.Range{Lo: m.Splits[i].Start}
			if i+1 < len(m.Splits) {
				rg.Hi = m.Splits[i+1].Start
			}
			var mid uint64
			if rg.Hi == 0 {
				mid = rg.Lo + (^uint64(0)-rg.Lo)/2
			} else {
				mid = rg.Lo + (rg.Hi-rg.Lo)/2
			}
			if mid <= rg.Lo {
				continue
			}
			sub := flowwire.Range{Lo: rg.Lo, Hi: mid}
			src, ok := m.RangeOwner(sub)
			if !ok {
				continue
			}
			picked = sub
			dst = (src + 1) % len(m.Nodes)
			if dst == src {
				continue
			}
			found = true
			break
		}
		if !found {
			return moved
		}
		mi, err := coord.MoveRange(picked, dst, 30*time.Second)
		if err != nil {
			fatalf("live migration %s -> node %d: %v (ledger %+v)", picked, dst, err, mi)
		}
		fmt.Fprintf(os.Stderr,
			"flowload: migrated %s -> node %d (snapshotted=%d forwarded=%d acked=%d conflicts=%d epoch=%d)\n",
			picked, dst, mi.Snapshotted, mi.Forwarded, mi.Acked, mi.Conflicts, coord.Epoch())
		moved++
		time.Sleep(20 * time.Millisecond)
	}
	return moved
}

func checkLocalScaling(throughput map[string]map[int]float64, shardCounts []int) {
	tp, ok := throughput["uniform"]
	if !ok {
		fatalf("-check needs a closed-loop (rate=0) uniform point: the scaling gate compares saturated throughput")
	}
	lo, hi := shardCounts[0], shardCounts[0]
	for _, sc := range shardCounts {
		if sc < lo {
			lo = sc
		}
		if sc > hi {
			hi = sc
		}
	}
	if lo == hi {
		fatalf("-check needs at least two shard counts in -shards")
	}
	ratio := tp[hi] / tp[lo]
	fmt.Fprintf(os.Stderr, "check: uniform throughput %d shards / %d shards = %.2fx\n", hi, lo, ratio)
	if runtime.NumCPU() == 1 {
		// One core: goroutines time-slice, so sharding cannot yield a
		// wall-clock speedup — the parallel-scaling assertion is vacuous.
		// Assert the weaker invariant that sharding costs no more than
		// half the throughput (per-shard overhead stays bounded).
		fmt.Fprintf(os.Stderr, "check: single CPU — skipping speedup assertion, requiring ratio > 0.5\n")
		if ratio <= 0.5 {
			fatalf("check failed: %d-shard throughput (%.0f/s) under half of %d-shard (%.0f/s) on one CPU",
				hi, tp[hi], lo, tp[lo])
		}
	} else if ratio <= 1.0 {
		fatalf("check failed: %d-shard throughput (%.0f/s) does not beat %d-shard (%.0f/s)",
			hi, tp[hi], lo, tp[lo])
	}
}

// emit validates a point result, prints its table row, and appends its
// benchmark document entry. Shared verbatim by local and remote sweeps.
func emit(cfg sweepConfig, name string, res pointResult) {
	if res.wrongValues > 0 {
		fatalf("%s: %d lookups returned a wrong value", name, res.wrongValues)
	}
	if cfg.churn == 0 && res.misses > 0 {
		fatalf("%s: %d misses in a read-only run", name, res.misses)
	}
	mlps := res.lookupsPerSec / 1e6
	fmt.Printf("%-40s %10d %12.2f %9.1f %9.1f %9.1f %9.1f %8d\n",
		name, res.lookups, mlps,
		float64(res.hist.Quantile(0.50))/1e3/float64(cfg.batch),
		float64(res.hist.Quantile(0.95))/1e3/float64(cfg.batch),
		float64(res.hist.Quantile(0.99))/1e3/float64(cfg.batch),
		float64(res.hist.Quantile(0.999))/1e3/float64(cfg.batch),
		res.retries)
	if res.offeredRate > 0 {
		achievedPct := 100 * res.lookupsPerSec / res.offeredRate
		fmt.Fprintf(os.Stderr, "  %s: offered %.0f/s achieved %.0f/s (%.1f%%)\n",
			name, res.offeredRate, res.lookupsPerSec, achievedPct)
	}
	cfg.doc.Benchmarks = append(cfg.doc.Benchmarks, benchjson.Benchmark{
		Name:       name,
		Procs:      cfg.workers,
		Iterations: res.lookups,
		Metrics: map[string]float64{
			"ns/op":          1e9 / res.lookupsPerSec,
			"lookups/sec":    res.lookupsPerSec,
			"offered-rate":   res.offeredRate,
			"achieved-rate":  res.lookupsPerSec,
			"p50-batch-ns":   float64(res.hist.Quantile(0.50)),
			"p95-batch-ns":   float64(res.hist.Quantile(0.95)),
			"p99-batch-ns":   float64(res.hist.Quantile(0.99)),
			"p999-batch-ns":  float64(res.hist.Quantile(0.999)),
			"batch":          float64(cfg.batch),
			"misses":         float64(res.misses),
			"retries":        float64(res.retries),
			"lock-fallbacks": float64(res.lockFallbacks),
			"churn-writes":   float64(res.deletes),
			"client-errors":  float64(res.clientErrors),
			"fill-ns/op":     res.fillNsPerOp,
		},
	})
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "flowload: "+format+"\n", args...)
	os.Exit(1)
}

func popularityOf(mix string) (trafficgen.Popularity, error) {
	switch mix {
	case "uniform":
		return trafficgen.Uniform, nil
	case "zipf":
		return trafficgen.Zipf, nil
	}
	return 0, fmt.Errorf("unknown mix %q (want uniform or zipf)", mix)
}

// buildWorkload generates the flow population for a mix and packs every
// flow's header key into one arena; key i aliases the arena, so workers
// share it read-only.
func buildWorkload(mix string, flows int, seed uint64) (*trafficgen.Workload, [][]byte) {
	pop, err := popularityOf(mix)
	if err != nil {
		fatalf("%v", err)
	}
	scn := trafficgen.Scenario{Name: "serve-" + mix, Flows: flows, Rules: 1, Popularity: pop}
	w := trafficgen.Generate(scn, seed)
	arena := make([]byte, len(w.Flows)*packet.HeaderKeyLen)
	keys := make([][]byte, len(w.Flows))
	for i, f := range w.Flows {
		k := arena[i*packet.HeaderKeyLen : (i+1)*packet.HeaderKeyLen]
		f.PutHeaderKey(k)
		keys[i] = k
	}
	return w, keys
}

// backend is one sweep point's serving endpoint: the redesigned
// flowserve.Reader/Writer pair plus a counters hook for point metrics.
// Local points put a *flowserve.Table in both seats; remote points a
// *flowwire.Client. reader, when set, yields a per-worker Reader (local
// workers pin their batch scratch via NewPinnedReader; remote workers
// share the client, whose connections multiplex).
type backend struct {
	r        flowserve.Reader
	w        flowserve.Writer
	reader   func() flowserve.Reader
	counters func() map[string]uint64
}

// workerReader returns the Reader one worker goroutine should loop on.
func (be backend) workerReader() flowserve.Reader {
	if be.reader != nil {
		return be.reader()
	}
	return be.r
}

// install writes the flow population through the backend's Writer across
// par goroutines (striped; remote installs pay a round trip per insert, so
// parallelism matters there) and returns the per-insert wall time in ns.
func install(be backend, keys [][]byte, par int) float64 {
	start := time.Now()
	var wg sync.WaitGroup
	for p := 0; p < par; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := p; i < len(keys); i += par {
				if err := be.w.Insert(keys[i], valueOf(i)); err != nil {
					fatalf("install flow %d: %v", i, err)
				}
			}
		}(p)
	}
	wg.Wait()
	return float64(time.Since(start).Nanoseconds()) / float64(len(keys))
}

// uninstall deletes the population (between remote mixes, whose key sets
// may collide with different values).
func uninstall(be backend, keys [][]byte, par int) {
	var wg sync.WaitGroup
	for p := 0; p < par; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := p; i < len(keys); i += par {
				be.w.Delete(keys[i])
			}
		}(p)
	}
	wg.Wait()
}

type pointConfig struct {
	workers int
	ops     int64
	batch   int
	churn   int
	seed    uint64
	rate    int // offered lookups/sec; 0 = closed loop
}

type pointResult struct {
	lookups       int64
	lookupsPerSec float64
	offeredRate   float64 // 0 in closed-loop points
	fillNsPerOp   float64
	misses        int64
	wrongValues   int64
	hist          *stats.Histogram // per-LookupMany-call latency, ns
	retries       uint64           // seqlock retries during the point
	lockFallbacks uint64
	deletes       uint64 // churn writes during the point
	clientErrors  uint64 // remote points: coerced transport failures
}

// valueOf is the value installed for flow index i (never zero).
func valueOf(i int) uint64 { return uint64(i) + 1 }

// runPoint serves cfg.ops lookups from cfg.workers goroutines through the
// backend's Reader, with churn through its Writer. The loop is identical
// for local tables and remote clients — that is the point of the interface.
//
// With cfg.rate > 0 the point runs open loop: workers claim batch ticks off
// a shared fixed-rate schedule (see pacer) and each batch's latency is
// measured from its *intended* send time, so a stalled server is charged
// the queueing delay instead of quietly slowing the offered load
// (coordinated omission). Closed loop (rate 0) measures from the actual
// send as before. Latency histograms run at high resolution so the p99.9
// tail is within ~0.4% instead of the default ~6%.
func runPoint(w *trafficgen.Workload, keys [][]byte, be backend, cfg pointConfig) pointResult {
	countersBefore := be.counters()
	var (
		issued  atomic.Int64 // lookups claimed by workers
		misses  atomic.Int64
		wrong   atomic.Int64
		wg      sync.WaitGroup
		histMu  sync.Mutex
		allHist = stats.NewHistogramRes(stats.HighResSubBits)
	)
	start := time.Now()
	var pace *pacer
	if cfg.rate > 0 {
		pace = newPacer(start, float64(cfg.rate), cfg.batch)
	}
	for wi := 0; wi < cfg.workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			rd := be.workerReader()
			stream := w.NewStream(cfg.seed ^ (0x57AB1E + uint64(wi)*0x9e3779b97f4a7c15))
			churnStream := w.NewStream(cfg.seed ^ (0xC0FFEE + uint64(wi)*0xc2b2ae3d27d4eb4f))
			bkeys := make([][]byte, cfg.batch)
			bidx := make([]int, cfg.batch)
			results := make([]flowserve.Result, cfg.batch)
			hist := stats.NewHistogramRes(stats.HighResSubBits)
			sinceChurn := 0
			for {
				claimed := issued.Add(int64(cfg.batch))
				if claimed > cfg.ops {
					break
				}
				for j := 0; j < cfg.batch; j++ {
					fi := stream.NextFlow()
					bidx[j] = fi
					bkeys[j] = keys[fi]
				}
				var t0 time.Time
				if pace != nil {
					tick := claimed/int64(cfg.batch) - 1
					t0 = pace.wait(tick)
				} else {
					t0 = time.Now()
				}
				rd.LookupMany(bkeys, results)
				hist.Observe(uint64(time.Since(t0).Nanoseconds()))
				for j := 0; j < cfg.batch; j++ {
					if !results[j].OK {
						misses.Add(1) // transient: the flow was churned out
					} else if results[j].Value != valueOf(bidx[j]) {
						wrong.Add(1)
					}
				}
				sinceChurn += cfg.batch
				if cfg.churn > 0 && sinceChurn >= cfg.churn {
					sinceChurn = 0
					fi := churnStream.NextFlow()
					if be.w.Delete(keys[fi]) {
						// Reinstall with the same value; a concurrent reader
						// sees a consistent miss at worst, never a torn hit.
						if err := be.w.Insert(keys[fi], valueOf(fi)); err != nil && err != flowserve.ErrKeyExists {
							wrong.Add(1)
						}
					}
				}
			}
			histMu.Lock()
			allHist.Merge(hist)
			histMu.Unlock()
		}(wi)
	}
	wg.Wait()
	elapsed := time.Since(start)

	delta := counterDelta(countersBefore, be.counters())
	lookups := allHist.Count() * uint64(cfg.batch)
	return pointResult{
		lookups:       int64(lookups),
		lookupsPerSec: float64(lookups) / elapsed.Seconds(),
		offeredRate:   float64(cfg.rate),
		misses:        misses.Load(),
		wrongValues:   wrong.Load(),
		hist:          allHist,
		retries:       delta["flowserve.lookup.retries"],
		lockFallbacks: delta["flowserve.lookup.lock_fallbacks"],
		deletes:       delta["flowserve.deletes"],
	}
}

// counterDelta subtracts two counter snapshots name-wise (missing names
// count as zero; counters are monotonic so the difference never wraps).
func counterDelta(before, after map[string]uint64) map[string]uint64 {
	out := make(map[string]uint64, len(after))
	for name, v := range after {
		out[name] = v - before[name]
	}
	return out
}

// dialRetry dials with retries: CI starts flowserved in the background and
// races it to the first connect, so brief refusals at startup are expected.
func dialRetry(ep flowwire.Endpoint, opts flowwire.Options, patience time.Duration) *flowwire.Client {
	deadline := time.Now().Add(patience)
	for {
		cl, err := flowwire.DialEndpoint(ep, opts)
		if err == nil {
			return cl
		}
		if time.Now().After(deadline) {
			fatalf("dial %s: %v", ep, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// dialRouterRetry is dialRetry for the cluster router: every node must come
// up before New succeeds.
func dialRouterRetry(eps []flowwire.Endpoint, opts flowcluster.Options, patience time.Duration) *flowcluster.Router {
	deadline := time.Now().Add(patience)
	for {
		r, err := flowcluster.New(eps, opts)
		if err == nil {
			return r
		}
		if time.Now().After(deadline) {
			fatalf("cluster dial %s: %v", flowwire.EndpointList(eps), err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}
