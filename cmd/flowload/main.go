// Command flowload drives a flowserve table served by other processes with
// live goroutine traffic. Per sweep point it opens a target, installs a
// seeded flow population through it, hammers it from concurrent workers
// drawing uniform or Zipf flow mixes (plus an optional churn of concurrent
// deletes+reinserts), and reports throughput and batch-latency quantiles.
//
// There is one load loop (internal/loadgen's draw → lookup → verify, fanned
// out in load.go) and one sweep over a target, sweeping client connection
// counts: with -remote a flowwire.Client speaking the wire protocol to one
// flowserved, with -cluster the flowcluster router over several flowserved
// nodes with live range migrations riding along. A target only says how a
// point's endpoint is opened; workers, verification, ledger and document
// schema are the same for both. The in-process table is measured by bench/.
//
// Usage:
//
//	flowload -remote tcp://127.0.0.1:7411     # drive a flowserved over TCP
//	flowload -remote tcp://:7411 -conns 1,2,4 # sweep client connection counts
//	flowload -remote unix:///tmp/fs.sock      # drive over a unix socket
//	flowload -remote shm:///tmp/fs.sock       # drive over shared-memory rings
//	flowload -cluster tcp://:7411,tcp://:7412,tcp://:7413
//	                                          # drive a flowserved cluster through
//	                                          #   the flowcluster router, live-migrating
//	                                          #   -migrations hash ranges under load
//	flowload -remote … -rate 500000,1000000   # open loop: offer fixed rates and
//	                                          #   measure latency from intended
//	                                          #   send (coordinated-omission-safe)
//	flowload -remote … -flows 200000 -ops 5000000
//	                                          # bigger table, longer run
//	flowload -remote … -json BENCH_serve.json # write the halo-bench/v1 document
//
// Every lookup is verified exactly: a hit must carry its flow's value, and a
// miss is accepted only when the loadgen oracle's per-flow state word shows a
// churn writer had the flow out across the call. Anything else is a hard
// error (the concurrent analogue of halobench's -verify); the document's
// "misses" metric counts the excused ones. Every point also closes its
// ledger — the served-lookups counter balances every issued key, with zero
// transport errors coerced into misses — and on a cluster at least one live
// migration must complete. These checks are exact; no time, rate or latency
// is compared against a threshold. The -json document uses the same
// halo-bench/v1 schema as BENCH_perf.json, so serving results land in CI
// artifacts next to the simulator benchmarks. Timing-derived numbers are
// machine-dependent; the document is an artifact, not a golden file.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"halo/internal/benchjson"
	"halo/internal/flowcluster"
	"halo/internal/flowserve"
	"halo/internal/flowwire"
	"halo/internal/listflag"
	"halo/internal/loadgen"
	"halo/internal/packet"
	"halo/internal/stats"
	"halo/internal/trafficgen"
)

// sweepConfig is the command line: what every point of a sweep runs with.
type sweepConfig struct {
	flows   int
	mixes   []string
	workers int
	ops     int64
	batch   int
	churn   int
	seed    uint64
	rates   []int
	doc     *benchjson.Document
}

func main() {
	var cfg sweepConfig
	flag.IntVar(&cfg.flows, "flows", 100_000, "flow population size")
	flag.IntVar(&cfg.workers, "workers", runtime.GOMAXPROCS(0), "concurrent load-generator goroutines")
	flag.Int64Var(&cfg.ops, "ops", 2_000_000, "total lookups per sweep point")
	flag.IntVar(&cfg.batch, "batch", 16, "keys per LookupMany call")
	flag.IntVar(&cfg.churn, "churn", 64, "issue one delete+reinsert per this many lookups per worker (0 = read-only)")
	flag.Uint64Var(&cfg.seed, "seed", 0x464c4f57, "workload seed")
	var (
		mixFlag  = flag.String("mix", "uniform,zipf", "comma-separated flow mixes (uniform, zipf)")
		connsFl  = flag.String("conns", "1,2,4", "comma-separated client connection counts to sweep")
		remote   = flag.String("remote", "", "flowserved endpoint (tcp://host:port, unix:///path, shm:///path)")
		clusterF = flag.String("cluster", "", "comma-separated flowserved cluster endpoints; drive them through the flowcluster router")
		migrateN = flag.Int("migrations", 1, "live range migrations to run under load per cluster sweep point")
		ratesFl  = flag.String("rate", "0", "comma-separated offered lookups/sec per point (0 = closed loop)")
		jsonPath = flag.String("json", "", "write the halo-bench/v1 document to this file")
	)
	flag.Parse()

	var err error
	must := func(err error) {
		if err != nil {
			fatalf("%v", err)
		}
	}
	cfg.mixes, err = listflag.Enum("mix", *mixFlag, "uniform", "zipf")
	must(err)
	connCounts, err := listflag.PositiveInts("conns", *connsFl)
	must(err)
	cfg.rates, err = listflag.Ints("rate", *ratesFl)
	must(err)
	for _, r := range cfg.rates {
		if r < 0 {
			fatalf("-rate values must be >= 0 (0 = closed loop)")
		}
	}
	switch {
	case cfg.workers < 1 || cfg.batch < 1 || cfg.ops < 1 || cfg.flows < 1:
		fatalf("-workers, -batch, -ops and -flows must be positive")
	case (*remote == "") == (*clusterF == ""):
		fatalf("exactly one of -remote and -cluster is required")
	case *migrateN < 0:
		fatalf("-migrations must be >= 0")
	}

	var tg target
	if *clusterF != "" {
		var eps []flowwire.Endpoint
		eps, err = flowwire.ParseEndpoints("cluster", *clusterF)
		must(err)
		tg, err = clusterTarget(eps, connCounts, *migrateN)
	} else {
		var ep flowwire.Endpoint
		if ep, err = flowwire.ParseEndpoint(*remote); err != nil {
			fatalf("-remote: %v", err)
		}
		tg, err = clientTarget(ep, cfg.flows, connCounts)
	}
	must(err)

	// Stamp the workload identity (seeds + config + the target's identity)
	// into the document so benchdiff refuses to compare serve artifacts
	// produced by different sweeps. Worker count is deliberately NOT config:
	// it defaults to the host's GOMAXPROCS and is recorded per benchmark as
	// Procs instead.
	cfg.doc = &benchjson.Document{
		Schema:    benchjson.SchemaVersion,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Seeds:     []uint64{cfg.seed},
		Config: map[string]string{
			"tool":  "flowload",
			"flows": fmt.Sprint(cfg.flows),
			"ops":   fmt.Sprint(cfg.ops),
			"batch": fmt.Sprint(cfg.batch),
			"mix":   *mixFlag,
			"sweep": "conns=" + *connsFl,
			"churn": fmt.Sprint(cfg.churn),
			"rate":  *ratesFl,
		},
		Benchmarks: []benchjson.Benchmark{},
	}
	for k, v := range tg.identity {
		cfg.doc.Config[k] = v
	}
	fmt.Printf("%-40s %10s %12s %9s %9s %9s %9s %8s\n",
		"point", "lookups", "Mlookups/s", "p50-us", "p95-us", "p99-us", "p99.9-us", "retries")
	err = sweep(cfg, tg)
	if tg.close != nil {
		if cerr := tg.close(); err == nil {
			err = cerr
		}
	}
	must(err)

	if *jsonPath != "" {
		data, err := benchjson.Encode(cfg.doc)
		if err != nil {
			fatalf("encode: %v", err)
		}
		if _, err := benchjson.Decode(data); err != nil {
			fatalf("self-check: emitted document does not validate: %v", err)
		}
		must(os.WriteFile(*jsonPath, data, 0o644))
		fmt.Fprintf(os.Stderr, "serve document: %s (%d bytes)\n", *jsonPath, len(data))
	}
}

// conn is one sweep point's endpoint as the sweep sees it: a
// *flowwire.Client or the *flowcluster.Router. Both multiplex their
// connections, so the workers share the conn as their Reader.
type conn interface {
	flowserve.ReadWriter
	StatsSnapshot() (*stats.Snapshot, error)
	CollectInto(*stats.Snapshot)
	Err() error
	Close() error
}

// coercedCalls is how many calls a transport failure turned into a miss or a
// false: flowwire.client.errors for a client, flowcluster.errors for a router
// (whose per-node clients only start tickets and call the error-returning
// mutations, which never count in flowwire.client.errors).
func coercedCalls(c conn) uint64 {
	snap := stats.NewSnapshot()
	c.CollectInto(snap)
	return snap.Counter("flowwire.client.errors") + snap.Counter("flowcluster.errors")
}

// installPar is how many goroutines install and uninstall a population: a
// remote insert pays a round trip.
const installPar = 8

// target is what a sweep drives: how a point's endpoint is opened for each
// of counts (client connections per server), and what rides along with the
// load.
type target struct {
	// identity is stamped into the document's workload identity. The mode,
	// the transport (the wire transport, or "cluster" for a node set), the
	// endpoint set and, for a cluster, the shard-map epoch all belong: UDS vs
	// TCP loopback, or a different topology or number of preceding cutovers,
	// is a different experiment at identical settings.
	identity map[string]string
	prefix   string // point-name segment after "FlowServe/"
	counts   []int
	open     func(n int) (conn, error)

	// along, when set, runs beside each point's load until stop closes and
	// reports how many live migrations it completed; the sweep wants ≥ 1.
	along func(stop <-chan struct{}) (int, error)
	close func() error // nil, or releases what the constructor opened
}

// retry calls dial until it succeeds or ten seconds pass: CI starts
// flowserved in the background and races it to the first connect, so brief
// refusals at startup are expected.
func retry(dial func() error) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := dial()
		if err == nil || time.Now().After(deadline) {
			return err
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// clientTarget sweeps connection counts against one flowserved: a fresh
// client pool per point.
func clientTarget(ep flowwire.Endpoint, flows int, connCounts []int) (target, error) {
	var probe *flowwire.Client
	err := retry(func() (err error) {
		probe, err = flowwire.DialEndpoint(ep, flowwire.Options{})
		return err
	})
	if err != nil {
		return target{}, fmt.Errorf("dial %s: %w", ep, err)
	}
	hello := probe.Hello()
	probe.Close()
	if hello.KeyLen != packet.HeaderKeyLen {
		return target{}, fmt.Errorf("server key length %d, want %d (packet header keys)", hello.KeyLen, packet.HeaderKeyLen)
	}
	if hello.Capacity < loadgen.Entries(flows) {
		return target{}, fmt.Errorf("server capacity %d too small for %d flows (want %d)", hello.Capacity, flows, loadgen.Entries(flows))
	}
	fmt.Fprintf(os.Stderr, "flowload: remote %s (shards=%d capacity=%d keylen=%d)\n",
		ep, hello.Shards, hello.Capacity, hello.KeyLen)
	return target{
		identity: map[string]string{
			"mode": "remote", "transport": ep.Transport, "endpoints": ep.String(),
		},
		prefix: "remote/", counts: connCounts,
		open: func(n int) (conn, error) {
			return flowwire.DialEndpoint(ep, flowwire.Options{Conns: n})
		},
	}, nil
}

// clusterTarget sweeps per-node connection counts against a flowserved
// cluster through the flowcluster router — to the sweep just another
// ReadWriter. A second router, the coordinator, live-migrates `migrations`
// ranges beside each point's load, so every point exercises WRONG_SHARD
// redirects and at least one epoch-bumped cutover.
func clusterTarget(eps []flowwire.Endpoint, connCounts []int, migrations int) (target, error) {
	var coord *flowcluster.Router
	err := retry(func() (err error) { // every node must come up before New succeeds
		coord, err = flowcluster.New(eps, flowcluster.Options{Client: flowwire.Options{Conns: 2}})
		return err
	})
	if err != nil {
		return target{}, fmt.Errorf("cluster dial %s: %w", flowwire.EndpointList(eps), err)
	}
	if coord.KeyLen() != packet.HeaderKeyLen {
		coord.Close()
		return target{}, fmt.Errorf("cluster key length %d, want %d (packet header keys)", coord.KeyLen(), packet.HeaderKeyLen)
	}
	fmt.Fprintf(os.Stderr, "flowload: cluster %s (epoch=%d keylen=%d)\n",
		flowwire.EndpointList(eps), coord.Epoch(), coord.KeyLen())
	tg := target{
		identity: map[string]string{
			"mode": "cluster", "transport": "cluster", "migrations": fmt.Sprint(migrations),
			"endpoints": flowwire.EndpointList(eps), "epoch": fmt.Sprint(coord.Epoch()),
		},
		prefix: "cluster/", counts: connCounts,
		open: func(n int) (conn, error) {
			return flowcluster.New(eps, flowcluster.Options{Client: flowwire.Options{Conns: n}})
		},
		close: func() error {
			defer coord.Close()
			return coord.Err()
		},
	}
	if migrations > 0 {
		tg.along = func(stop <-chan struct{}) (int, error) { return runMigrations(coord, migrations, stop) }
	}
	return tg, nil
}

// moveRange is the fixed 1/8 of the hash space the cluster sweep keeps
// moving — the scheme bench/serving.go's mover proves under exact
// verification.
var moveRange = flowwire.Range{Lo: 0, Hi: 1 << 61}

// runMigrations live-migrates moveRange back and forth between the node that
// holds it at the start and the next one, until count moves completed or
// stop closes. A failed move is an error — MoveRange succeeding IS the
// zero-loss handoff invariant (the ledger balanced and the cutover map
// installed everywhere).
func runMigrations(coord *flowcluster.Router, count int, stop <-chan struct{}) (moved int, err error) {
	home := -1
	for moved < count {
		select {
		case <-stop:
			return moved, nil
		default:
		}
		m := coord.Map()
		src, _ := m.RangeOwner(moveRange) // MoveRange rejects a range with several owners
		if home < 0 {
			home = src
		}
		dst := home
		if src == home {
			dst = (home + 1) % len(m.Nodes)
		}
		mi, err := coord.MoveRange(moveRange, dst, 30*time.Second)
		if err != nil {
			return moved, fmt.Errorf("live migration %s -> node %d: %w (ledger %+v)", moveRange, dst, err, mi)
		}
		fmt.Fprintf(os.Stderr,
			"flowload: migrated %s -> node %d (snapshotted=%d forwarded=%d acked=%d conflicts=%d epoch=%d)\n",
			moveRange, dst, mi.Snapshotted, mi.Forwarded, mi.Acked, mi.Conflicts, coord.Epoch())
		moved++
		time.Sleep(20 * time.Millisecond) // let the cluster settle
	}
	return moved, nil
}

var popularity = map[string]trafficgen.Popularity{"uniform": trafficgen.Uniform, "zipf": trafficgen.Zipf}

// sweep runs one point per (mix, count, rate) against the target; every point
// closes its ledger (see runPoint), and a target with migrations riding along
// must have completed at least one.
func sweep(cfg sweepConfig, tg target) error {
	var (
		issued int64
		moved  int
	)
	for _, mix := range cfg.mixes {
		pop := loadgen.NewPopulation(cfg.flows, popularity[mix], cfg.seed)
		for _, n := range tg.counts {
			for _, rate := range cfg.rates {
				// Closed-loop points keep their historical names so
				// longitudinal diffs line up.
				name := fmt.Sprintf("FlowServe/%smix=%s/conns=%d", tg.prefix, mix, n)
				if rate > 0 {
					name = fmt.Sprintf("%s/rate=%d", name, rate)
				}
				pt, err := runPoint(cfg, tg, pop, name, n, rate)
				if err != nil {
					return fmt.Errorf("%s: %w", name, err)
				}
				issued += pt.issued
				moved += pt.moved
			}
		}
	}
	fmt.Fprintf(os.Stderr, "check: every point served exactly the keys issued (%d in all) with zero transport errors; %d live migrations\n",
		issued, moved)
	if tg.along != nil && moved == 0 {
		return fmt.Errorf("check failed: no live migration completed under load")
	}
	return nil
}

// point is what the sweep keeps of one of its points.
type point struct {
	issued int64   // keys the workers looked up
	served int64   // keys the server probed, less those a cutover redirected and probed again
	moved  int     // live migrations completed beside the load
	perSec float64 // lookups per second
}

// runPoint opens the point's endpoint, installs the population through it,
// serves cfg.ops lookups from cfg.workers goroutines, and clears the
// population again — the server outlives the point. It then closes the
// ledger: every key the workers issued must appear in the served
// flowserve.lookups counter (summed across a cluster's nodes) — a lookup
// dropped or double-served anywhere in the pipeline (client pool, wire,
// coalescer, batch, a migration cutover) breaks the equality.
func runPoint(cfg sweepConfig, tg target, pop *loadgen.Population, name string, n, rate int) (point, error) {
	c, err := tg.open(n)
	if err != nil {
		return point{}, err
	}
	pt, metrics, err := servePoint(cfg, tg, pop, c, rate)
	pop.Uninstall(c, installPar)
	coerced, cerr := coercedCalls(c), c.Err()
	c.Close()
	switch {
	case err != nil:
		return pt, err
	case cerr != nil:
		return pt, fmt.Errorf("transport error: %w", cerr)
	case pt.served != pt.issued:
		return pt, fmt.Errorf("check failed: lookup ledger off by %d (issued %d, served %d)",
			pt.served-pt.issued, pt.issued, pt.served)
	case coerced != 0:
		// A silently-coerced transport failure reads as a miss or a false in
		// the workload; the counter makes it a hard failure of its own.
		return pt, fmt.Errorf("check failed: %d transport errors were coerced into misses", coerced)
	}
	metrics["client-errors"] = float64(coerced)
	cfg.doc.Benchmarks = append(cfg.doc.Benchmarks, benchjson.Benchmark{
		Name: name, Procs: cfg.workers, Iterations: pt.issued, Metrics: metrics,
	})
	us := func(key string) float64 { return metrics[key] / 1e3 / float64(cfg.batch) }
	fmt.Printf("%-40s %10d %12.2f %9.1f %9.1f %9.1f %9.1f %8.0f\n", name, pt.issued, pt.perSec/1e6,
		us("p50-batch-ns"), us("p95-batch-ns"), us("p99-batch-ns"), us("p999-batch-ns"), metrics["retries"])
	if rate > 0 {
		fmt.Fprintf(os.Stderr, "  %s: offered %d/s achieved %.0f/s (%.1f%%)\n",
			name, rate, pt.perSec, 100*pt.perSec/float64(rate))
	}
	return pt, nil
}

// servePoint is runPoint between open and close: install, load (with
// whatever rides along), and the point's metrics from the load's own tally
// and the server-side counter deltas across it.
func servePoint(cfg sweepConfig, tg target, pop *loadgen.Population, c conn, rate int) (pt point, metrics map[string]float64, err error) {
	start := time.Now()
	if err := pop.Install(c, 0, len(pop.Keys), installPar); err != nil {
		return pt, nil, err
	}
	fillNs := float64(time.Since(start).Nanoseconds()) / float64(len(pop.Keys))
	before, err := c.StatsSnapshot()
	if err != nil {
		return pt, nil, fmt.Errorf("stats: %w", err)
	}

	l := load{
		pop:     pop,
		oracle:  loadgen.NewOracle(pop, cfg.churn > 0),
		workers: cfg.workers,
		batch:   cfg.batch,
		seed:    cfg.seed,
		ops:     cfg.ops,
		churn:   cfg.churn,
		rw:      c,
	}
	if rate > 0 {
		l.pace = newPacer(time.Now(), float64(rate), cfg.batch)
	}
	stop, alongErr := make(chan struct{}), make(chan error, 1)
	go func() {
		var err error
		if tg.along != nil {
			pt.moved, err = tg.along(stop)
		}
		alongErr <- err
	}()
	lr, err := l.run()
	close(stop)
	if aerr := <-alongErr; err == nil {
		err = aerr
	}
	if err != nil {
		return pt, nil, err
	}

	after, err := c.StatsSnapshot()
	if err != nil {
		return pt, nil, fmt.Errorf("stats: %w", err)
	}
	delta := func(name string) uint64 { return after.Counters[name] - before.Counters[name] }
	pt.issued = lr.lookups
	pt.perSec = float64(lr.lookups) / lr.elapsed.Seconds()
	// A frame probed under a map that a cutover then replaced is redirected
	// and served again by the gaining node; stale_probes counts exactly those
	// extra probes, so the ledger stays exact.
	pt.served = int64(delta("flowserve.lookups") - delta("flowwire.cluster.stale_probes"))
	return pt, map[string]float64{
		"ns/op":          1e9 / pt.perSec,
		"lookups/sec":    pt.perSec,
		"offered-rate":   float64(rate), // 0 in closed-loop points
		"achieved-rate":  pt.perSec,
		"p50-batch-ns":   float64(lr.hist.Quantile(0.50)),
		"p95-batch-ns":   float64(lr.hist.Quantile(0.95)),
		"p99-batch-ns":   float64(lr.hist.Quantile(0.99)),
		"p999-batch-ns":  float64(lr.hist.Quantile(0.999)),
		"batch":          float64(cfg.batch),
		"misses":         float64(lr.excused),
		"retries":        float64(delta("flowserve.lookup.retries")),
		"lock-fallbacks": float64(delta("flowserve.lookup.lock_fallbacks")),
		"churn-writes":   float64(delta("flowserve.deletes")),
		"fill-ns/op":     fillNs,
	}, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "flowload: "+format+"\n", args...)
	os.Exit(1)
}
