// Command flowload drives the flowserve runtime with live goroutine traffic
// — the serving-side counterpart of halobench's simulated experiments. Per
// sweep point it opens a target, installs a seeded flow population through
// it, hammers it from concurrent workers drawing uniform or Zipf flow mixes
// (plus an optional churn of concurrent deletes+reinserts), and reports
// throughput and batch-latency quantiles.
//
// There is one load loop (internal/loadgen's draw → lookup → verify, fanned
// out in load.go) and one sweep over a target: an in-process
// *flowserve.Table (sweeping shard counts), with -remote a flowwire.Client
// speaking the wire protocol to a flowserved (sweeping connection counts),
// with -cluster the flowcluster router over several flowserved nodes with
// live range migrations riding along. A target only says how a point's
// endpoint is opened; workers, verification, ledger and document schema are
// the same for all three.
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
//	                                          #   lookups; gate migration p99 at 2x
//	                                          #   of steady state
//	flowload -json BENCH_serve.json           # write the halo-bench/v1 document
//	flowload -check                           # fail unless every point's served-lookups
//	                                          #   counter balances every issued key with
//	                                          #   zero transport errors; locally also
//	                                          #   unless max-shard uniform throughput
//	                                          #   beats 1-shard; on a cluster also unless
//	                                          #   ≥1 live migration completed under load
//	flowload -smoke                           # small fast settings for CI
//
// Every lookup is verified exactly, in every mode and with or without
// -check: a hit must carry its flow's value, and a miss is accepted only
// when the loadgen oracle's per-flow state word shows a churn writer had the
// flow out across the call. Anything else is a hard error (the concurrent
// analogue of halobench's -verify); the document's "misses" metric counts the
// excused ones. The -json document uses the same halo-bench/v1 schema as
// BENCH_perf.json, so serving results land in CI artifacts next to the
// simulator benchmarks. Timing-derived numbers are machine-dependent; the
// document is an artifact, not a golden file.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
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
	check   bool
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
	flag.BoolVar(&cfg.check, "check", false, "fail unless the lookup ledger balances (plus the scaling gate locally, ≥1 live migration on a cluster)")
	var (
		mixFlag  = flag.String("mix", "uniform,zipf", "comma-separated flow mixes (uniform, zipf)")
		shardsFl = flag.String("shards", "1,2,4,8", "comma-separated shard counts to sweep (local mode)")
		connsFl  = flag.String("conns", "1,2,4", "comma-separated client connection counts to sweep (remote mode)")
		remote   = flag.String("remote", "", "flowserved endpoint (tcp://host:port, unix:///path, shm:///path); sweep -conns against it instead of local -shards")
		clusterF = flag.String("cluster", "", "comma-separated flowserved cluster endpoints; drive them through the flowcluster router")
		migrateN = flag.Int("migrations", 1, "live range migrations to run under load per cluster sweep point")
		ratesFl  = flag.String("rate", "0", "comma-separated offered lookups/sec per point (0 = closed loop)")
		jsonPath = flag.String("json", "", "write the halo-bench/v1 document to this file")
		smoke    = flag.Bool("smoke", false, "small fast settings for CI (overrides -flows/-ops)")
		grow     = flag.Bool("grow", false, "resize churn workload (local only, closed loop): force shard doublings under Zipf lookups and measure migration-phase latency")
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
	networked := *remote != "" || *clusterF != ""
	if *smoke {
		cfg.flows = 20_000
		cfg.ops = 400_000
		if networked {
			// Remote smoke pays a round trip per batch; keep CI fast.
			cfg.ops = 150_000
		}
		if !workersSet {
			// Always run with real concurrency, even on small CI boxes:
			// the point of smoke is exercising the concurrent read path.
			cfg.workers = 4
		}
	}
	var err error
	must := func(err error) {
		if err != nil {
			fatalf("%v", err)
		}
	}
	cfg.mixes, err = listflag.Enum("mix", *mixFlag, "uniform", "zipf")
	must(err)
	shardCounts, err := listflag.PositiveInts("shards", *shardsFl)
	must(err)
	connCounts, err := listflag.PositiveInts("conns", *connsFl)
	must(err)
	cfg.rates, err = listflag.Ints("rate", *ratesFl)
	must(err)
	openLoop := false
	for _, r := range cfg.rates {
		if r < 0 {
			fatalf("-rate values must be >= 0 (0 = closed loop)")
		}
		openLoop = openLoop || r > 0
	}
	switch {
	case cfg.workers < 1 || cfg.batch < 1 || cfg.ops < 1 || cfg.flows < 1:
		fatalf("-workers, -batch, -ops and -flows must be positive")
	case *remote != "" && *clusterF != "":
		fatalf("-remote and -cluster are mutually exclusive")
	case *grow && networked:
		fatalf("-grow is local-only: it drives Table.Grow/ResizeStep directly")
	case *grow && openLoop:
		fatalf("-grow is closed-loop: it has no offered -rate")
	case *migrateN < 0:
		fatalf("-migrations must be >= 0")
	case networked && shardsSet:
		fmt.Fprintln(os.Stderr, "flowload: -shards is ignored with -remote/-cluster (shard count is fixed server-side)")
	}

	// Stamp the workload identity (seeds + config) into the document so
	// benchdiff refuses to compare serve artifacts produced by different
	// sweeps; each mode stamps only the knobs it consumes. Worker count is
	// deliberately NOT config: it defaults to the host's GOMAXPROCS and is
	// recorded per benchmark as Procs instead.
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
			"sweep": "shards=" + *shardsFl,
		},
		Benchmarks: []benchjson.Benchmark{},
	}
	stamp := cfg.doc.Config
	if *grow {
		stamp["mode"], stamp["transport"] = "grow", "local"
		stamp["mix"] = "zipf" // the grow workload is Zipf by construction
		stamp["grow_doublings"] = fmt.Sprint(loadgen.GrowDoublings)
		stamp["grow_p99x"] = fmt.Sprint(loadgen.GrowP99Bound)
		must(runGrowSweep(cfg, shardCounts))
	} else {
		stamp["churn"] = fmt.Sprint(cfg.churn)
		stamp["rate"] = *ratesFl
		tg := tableTarget(cfg.flows, shardCounts)
		if networked {
			stamp["sweep"] = "conns=" + *connsFl
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
		}
		for k, v := range tg.identity {
			stamp[k] = v
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
	}

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

// conn is one sweep point's endpoint as the sweep sees it: a table, a
// flowwire client or the cluster router.
type conn interface {
	flowserve.ReadWriter
	reader() flowserve.Reader // one worker's Reader
	StatsSnapshot() (*stats.Snapshot, error)
	// finish reports how many calls a transport failure coerced into a
	// miss/false, and the first such failure, then closes.
	finish() (coerced uint64, err error)
}

// tableConn: workers pin their batch scratch via NewPinnedReader.
type tableConn struct{ *flowserve.Table }

func (t tableConn) reader() flowserve.Reader { return t.NewPinnedReader() }
func (tableConn) finish() (uint64, error)    { return 0, nil }
func (t tableConn) StatsSnapshot() (*stats.Snapshot, error) {
	snap := stats.NewSnapshot()
	t.CollectInto(snap)
	return snap, nil
}

// clientConn and routerConn are shared by the workers: their connections
// multiplex.
type clientConn struct{ *flowwire.Client }

func (c clientConn) reader() flowserve.Reader { return c }
func (c clientConn) finish() (uint64, error) {
	defer c.Close()
	return c.Counters().Errors, c.Err()
}

type routerConn struct{ *flowcluster.Router }

func (r routerConn) reader() flowserve.Reader { return r }
func (r routerConn) finish() (uint64, error) {
	defer r.Close()
	return r.Errors(), r.Err()
}

// target is what a sweep drives: how a point's endpoint is opened for each
// of counts, and what rides along with the load.
type target struct {
	// identity is stamped into the document's workload identity. The mode,
	// the transport ("local" in process, the wire transport, "cluster" for a
	// node set) and, for servers, the endpoint set and shard-map epoch all
	// belong: UDS vs TCP loopback, or a different topology or number of
	// preceding cutovers, is a different experiment at identical settings.
	identity map[string]string
	prefix   string // point-name segment after "FlowServe/"
	unit     string // what counts counts: "shards" or "conns"
	counts   []int
	par      int // install parallelism: a remote insert pays a round trip
	open     func(n int) (conn, error)

	// along, when set, runs beside each point's load until stop closes and
	// reports how many live migrations it completed; -check wants ≥ 1.
	along func(stop <-chan struct{}) (int, error)
	// scaling: -check also wants throughput to scale from the least to the
	// most of counts (shards share nothing; connections share one server).
	scaling bool
	close   func() error // nil, or releases what the constructor opened
}

// tableTarget sweeps shard counts over fresh in-process tables.
func tableTarget(flows int, shardCounts []int) target {
	return target{
		identity: map[string]string{"mode": "local", "transport": "local"},
		unit:     "shards", counts: shardCounts, par: 1, scaling: true,
		open: func(n int) (conn, error) {
			tbl, err := loadgen.NewTable(flows, n)
			return tableConn{tbl}, err
		},
	}
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
			"mode": "remote", "transport": ep.Transport,
			"endpoints": ep.String(), "epoch": fmt.Sprint(hello.Epoch),
		},
		prefix: "remote/", unit: "conns", counts: connCounts, par: 8,
		open: func(n int) (conn, error) {
			cl, err := flowwire.DialEndpoint(ep, flowwire.Options{Conns: n})
			return clientConn{cl}, err
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
		prefix: "cluster/", unit: "conns", counts: connCounts, par: 8,
		open: func(n int) (conn, error) {
			rt, err := flowcluster.New(eps, flowcluster.Options{Client: flowwire.Options{Conns: n}})
			return routerConn{rt}, err
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

// sweep runs one point per (mix, count, rate) against the target; with
// cfg.check every point closes its ledger (see runPoint) and the sweep gates
// what only shows across points.
func sweep(cfg sweepConfig, tg target) error {
	var (
		issued  int64
		moved   int
		uniform = map[int]float64{} // closed-loop uniform lookups/s by count
	)
	for _, mix := range cfg.mixes {
		pop := loadgen.NewPopulation(cfg.flows, popularity[mix], cfg.seed)
		for _, n := range tg.counts {
			for _, rate := range cfg.rates {
				// Closed-loop points keep their historical names so
				// longitudinal diffs line up.
				name := fmt.Sprintf("FlowServe/%smix=%s/%s=%d", tg.prefix, mix, tg.unit, n)
				if rate > 0 {
					name = fmt.Sprintf("%s/rate=%d", name, rate)
				}
				pt, err := runPoint(cfg, tg, pop, name, n, rate)
				if err != nil {
					return fmt.Errorf("%s: %w", name, err)
				}
				issued += pt.issued
				moved += pt.moved
				if mix == "uniform" && rate == 0 {
					uniform[n] = pt.perSec
				}
			}
		}
	}
	if !cfg.check {
		return nil
	}
	fmt.Fprintf(os.Stderr, "check: every point served exactly the keys issued (%d in all) with zero transport errors; %d live migrations\n",
		issued, moved)
	if tg.along != nil && moved == 0 {
		return fmt.Errorf("check failed: no live migration completed under load")
	}
	if tg.scaling {
		return checkScaling(uniform, tg.counts)
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
// population again — the endpoint may be a server that outlives the point.
// With cfg.check it closes the ledger: every key the workers issued must
// appear in the served flowserve.lookups counter (summed across a cluster's
// nodes) — a lookup dropped or double-served anywhere in the pipeline (client
// pool, wire, coalescer, batch, a migration cutover) breaks the equality.
func runPoint(cfg sweepConfig, tg target, pop *loadgen.Population, name string, n, rate int) (point, error) {
	c, err := tg.open(n)
	if err != nil {
		return point{}, err
	}
	pt, metrics, err := servePoint(cfg, tg, pop, c, rate)
	pop.Uninstall(c, tg.par)
	coerced, cerr := c.finish()
	switch {
	case err != nil:
		return pt, err
	case cerr != nil:
		return pt, fmt.Errorf("transport error: %w", cerr)
	case cfg.check && pt.served != pt.issued:
		return pt, fmt.Errorf("check failed: lookup ledger off by %d (issued %d, served %d)",
			pt.served-pt.issued, pt.issued, pt.served)
	case cfg.check && coerced != 0:
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
	if err := pop.Install(c, 0, len(pop.Keys), tg.par); err != nil {
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
		reader:  c.reader,
		limit:   func() int { return len(pop.Keys) },
		stop:    func(claimed int64) bool { return claimed > cfg.ops },
		churn:   cfg.churn,
		w:       c,
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

// checkScaling gates saturated uniform throughput at the most of counts
// against the least.
func checkScaling(tp map[int]float64, counts []int) error {
	if len(tp) == 0 {
		return fmt.Errorf("-check needs a closed-loop (rate=0) uniform point: the scaling gate compares saturated throughput")
	}
	lo, hi := slices.Min(counts), slices.Max(counts)
	if lo == hi {
		return fmt.Errorf("-check needs at least two shard counts in -shards")
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
			return fmt.Errorf("check failed: %d-shard throughput (%.0f/s) under half of %d-shard (%.0f/s) on one CPU",
				hi, tp[hi], lo, tp[lo])
		}
	} else if ratio <= 1.0 {
		return fmt.Errorf("check failed: %d-shard throughput (%.0f/s) does not beat %d-shard (%.0f/s)",
			hi, tp[hi], lo, tp[lo])
	}
	return nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "flowload: "+format+"\n", args...)
	os.Exit(1)
}
