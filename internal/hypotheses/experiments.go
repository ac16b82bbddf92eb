package hypotheses

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"halo/internal/flowserve"
	"halo/internal/flowwire"
	"halo/internal/loadgen"
	"halo/internal/stats"
	"halo/internal/trafficgen"
)

// shardBatchExperiment: PR 4 replaced naive per-key lookups with
// shard-grouped batching (Batch.LookupMany counting-sorts keys by shard and
// serves each group under one seqlock window). The claim riding on that
// change — "batching beats calling Lookup in a loop" — is what this
// experiment pins down across seeds.
func shardBatchExperiment() Experiment {
	return Experiment{
		Name:  "shard-grouped-batching",
		Title: "Shard-grouped batching (Batch.LookupMany) beats naive per-key Lookup loops",
		Kind:  KindDominance,
		ArmA:  "batched",
		ArmB:  "naive",
		Run: func(cfg Config, seed uint64) (SeedResult, error) {
			pop := loadgen.NewPopulation(cfg.Flows, trafficgen.Uniform, seed)
			tbl, err := pop.NewTable(cfg.Shards)
			if err != nil {
				return SeedResult{}, err
			}
			batch := tbl.NewBatch()
			batched := func(bkeys [][]byte, results []flowserve.Result) {
				batch.LookupMany(bkeys, results)
			}
			naive := func(bkeys [][]byte, results []flowserve.Result) {
				for j, k := range bkeys {
					v, ok := tbl.Lookup(k)
					results[j] = flowserve.Result{Value: v, OK: ok}
				}
			}
			return timeArms(pop, cfg, seed, batched, naive)
		},
	}
}

// serveOver starts an in-process flowwire server for tbl on the given
// endpoint (a tcp address may leave the port to the kernel) and dials one
// client to it. The caller owns both closes.
func serveOver(tbl *flowserve.Table, transport, addr string) (*flowwire.Server, *flowwire.Client, error) {
	ep := flowwire.Endpoint{Transport: transport, Addr: addr}
	srv, err := flowwire.NewServer(flowwire.Config{Table: tbl})
	if err != nil {
		return nil, nil, err
	}
	ln, err := flowwire.ListenEndpoint(ep)
	if err != nil {
		return nil, nil, err
	}
	ep.Addr = ln.Addr().String()
	go srv.Serve(ln)
	cl, err := flowwire.DialEndpoint(ep, flowwire.Options{})
	if err != nil {
		srv.Close()
		return nil, nil, err
	}
	return srv, cl, nil
}

// shmVsUnixExperiment: PR 8 added the shared-memory ring transport behind
// the flowwire seam. The claim that justifies it — "for same-host serving,
// rings beat unix sockets because the steady-state frame path makes no
// syscalls" — is measured here with both transports serving the identical
// table through identical clients; only the bytes' path differs (kernel
// socket buffers vs mapped SPSC rings).
func shmVsUnixExperiment() Experiment {
	return Experiment{
		Name:  "shm-vs-unix-transport",
		Title: "Shared-memory ring transport beats unix sockets for same-host serving",
		Kind:  KindDominance,
		ArmA:  "shm",
		ArmB:  "unix",
		Run: func(cfg Config, seed uint64) (SeedResult, error) {
			pop := loadgen.NewPopulation(cfg.Flows, trafficgen.Uniform, seed)
			tbl, err := pop.NewTable(cfg.Shards)
			if err != nil {
				return SeedResult{}, err
			}
			dir, err := os.MkdirTemp("", "halo-hyp-shm")
			if err != nil {
				return SeedResult{}, err
			}
			defer os.RemoveAll(dir)
			shmSrv, shmCl, err := serveOver(tbl, flowwire.TransportShm, filepath.Join(dir, "shm.sock"))
			if err != nil {
				return SeedResult{}, fmt.Errorf("shm arm: %w", err)
			}
			defer shmSrv.Close()
			defer shmCl.Close()
			udsSrv, udsCl, err := serveOver(tbl, flowwire.TransportUnix, filepath.Join(dir, "uds.sock"))
			if err != nil {
				return SeedResult{}, fmt.Errorf("unix arm: %w", err)
			}
			defer udsSrv.Close()
			defer udsCl.Close()
			overShm := func(bkeys [][]byte, results []flowserve.Result) {
				shmCl.LookupMany(bkeys, results)
			}
			overUds := func(bkeys [][]byte, results []flowserve.Result) {
				udsCl.LookupMany(bkeys, results)
			}
			sr, err := timeArms(pop, cfg, seed, overShm, overUds)
			if err != nil {
				return SeedResult{}, err
			}
			if err := shmCl.Err(); err != nil {
				return SeedResult{}, fmt.Errorf("shm client: %w", err)
			}
			if err := udsCl.Err(); err != nil {
				return SeedResult{}, fmt.Errorf("unix client: %w", err)
			}
			return sr, nil
		},
	}
}

// pipelineDepth is how many LOOKUP_MANY frames wire-pipelining-depth keeps in
// flight on its one connection.
const pipelineDepth = 4

// pipeliningExperiment: PR 19 split the client's exchange into start and
// wait for the cluster router, and ROADMAP asked what the same split buys a
// plain wire caller: one goroutine that writes pipelineDepth frames of
// cfg.Batch keys back-to-back on one connection and only then collects the
// replies, against the same goroutine making pipelineDepth blocking calls.
// The claim is measured, not acted on — no option or flag selects a depth.
func pipeliningExperiment(transport string) Experiment {
	return Experiment{
		Name: "wire-pipelining-depth-" + transport,
		Title: fmt.Sprintf("%d LOOKUP_MANY frames in flight on one %s connection beat %[1]d blocking calls",
			pipelineDepth, transport),
		Kind: KindDominance,
		ArmA: fmt.Sprintf("depth-%d", pipelineDepth),
		ArmB: "depth-1",
		Run: func(cfg Config, seed uint64) (SeedResult, error) {
			pop := loadgen.NewPopulation(cfg.Flows, trafficgen.Uniform, seed)
			tbl, err := pop.NewTable(cfg.Shards)
			if err != nil {
				return SeedResult{}, err
			}
			addr := "127.0.0.1:0"
			if transport == flowwire.TransportUnix {
				dir, err := os.MkdirTemp("", "halo-hyp-depth")
				if err != nil {
					return SeedResult{}, err
				}
				defer os.RemoveAll(dir)
				addr = filepath.Join(dir, "uds.sock")
			}
			srv, cl, err := serveOver(tbl, transport, addr)
			if err != nil {
				return SeedResult{}, err
			}
			defer srv.Close()
			defer cl.Close()

			// Each arm call serves pipelineDepth frames of cfg.Batch keys, so
			// both arms put identical frames on the wire.
			wide := cfg
			wide.Batch = pipelineDepth * cfg.Batch
			var armErr error // the last failed start or wait, if any
			pipelined := func(keys [][]byte, results []flowserve.Result) {
				var tickets [pipelineDepth]flowwire.LookupTicket
				started := 0
				for ; started < pipelineDepth; started++ {
					lt, err := cl.StartLookupMany(keys[started*cfg.Batch:][:cfg.Batch])
					if err != nil {
						armErr = err
						break
					}
					tickets[started] = lt
				}
				for i := 0; i < started; i++ { // every started ticket is waited
					if err := tickets[i].Wait(results[i*cfg.Batch:][:cfg.Batch], nil); err != nil {
						armErr = err
					}
				}
			}
			serial := func(keys [][]byte, results []flowserve.Result) {
				for i := 0; i < pipelineDepth; i++ {
					cl.LookupMany(keys[i*cfg.Batch:][:cfg.Batch], results[i*cfg.Batch:][:cfg.Batch])
				}
			}
			sr, err := timeArms(pop, wide, seed, pipelined, serial)
			for _, e := range []error{err, armErr, cl.Err()} {
				if e != nil {
					return SeedResult{}, e
				}
			}
			if c := cl.Counters(); c != (flowwire.ClientCounters{}) {
				return SeedResult{}, fmt.Errorf("client counters %+v, want zeroes", c)
			}
			return sr, nil
		},
	}
}

// resizePauseBoundExperiment: PR 9 made shards grow incrementally — a
// bounded number of buckets migrates per writer operation while readers stay
// wait-free. The claim that design stands on is that growing the table is
// NOT a latency event: batch lookup p99 measured while migrations are in
// flight stays within 2x (loadgen.GrowP99Bound) of the same table's
// steady-state p99. This is a bound claim, not a dominance claim — migration
// is allowed to cost something, just never a stall.
func resizePauseBoundExperiment() Experiment {
	return Experiment{
		Name:  "resize-pause-bound",
		Title: "Batch lookup p99 during incremental resize stays within 2x of steady state",
		Kind:  KindBound,
		Bound: loadgen.GrowP99Bound,
		ArmA:  "during-resize",
		ArmB:  "steady-state",
		Run: func(cfg Config, seed uint64) (SeedResult, error) {
			pop := loadgen.NewPopulation(cfg.Flows, trafficgen.Uniform, seed)
			var bestMig, bestStd uint64
			for r := 0; r < cfg.Repeats; r++ {
				// A fresh table per repeat: growth is one-shot, so the
				// migration arm cannot be replayed against warmed state.
				mig, std, err := measureResizePause(pop, cfg, seed)
				if err != nil {
					return SeedResult{}, err
				}
				if r == 0 || mig < bestMig {
					bestMig = mig
				}
				if r == 0 || std < bestStd {
					bestStd = std
				}
			}
			perKey := float64(cfg.Batch)
			return SeedResult{
				ANsPerOp: float64(bestMig) / perKey,
				BNsPerOp: float64(bestStd) / perKey,
			}, nil
		},
	}
}

// measureResizePause runs one growth episode single-goroutine and returns
// (migration-phase p99, steady-state p99) batch latencies in ns. The table
// is loadgen's grow-episode table (loadgen.GrowDoublings doublings below the
// population's capacity, auto-grow on); inserts stream in chunks between
// lookup batches, so every doubling's migration interleaves with the
// measured reads — exactly how a writer-driven resize amortises in
// production. Batches issued while a shard is mid-resize land in the
// migration histogram; the steady histogram is measured after the
// migrations drain, over the full population.
func measureResizePause(pop *loadgen.Population, cfg Config, seed uint64) (migP99, stdP99 uint64, err error) {
	const insertChunk = 32 // inserts between measured batches while growing
	tbl, installed, err := pop.NewGrowTable(cfg.Shards)
	if err != nil {
		return 0, 0, err
	}
	batch := tbl.NewBatch()
	c := pop.NewCaller(loadgen.NewOracle(pop, false), seed^0x47524f57, cfg.Batch) // "GROW"
	serveBatch := func(hist *stats.Histogram) error {
		c.Draw(installed)
		t0 := time.Now()
		batch.LookupMany(c.Keys, c.Results)
		hist.Observe(uint64(time.Since(t0).Nanoseconds()))
		_, err := c.Verify()
		return err
	}

	// Migration phase: grow the population to full size, measuring batches
	// between insert chunks. Batches that land while no shard is resizing
	// are discarded (scratch) — the arm is "during resize", not "while also
	// inserting".
	migHist := stats.NewHistogramRes(stats.HighResSubBits)
	scratch := stats.NewHistogramRes(stats.HighResSubBits)
	for installed < len(pop.Keys) {
		next := min(installed+insertChunk, len(pop.Keys))
		if err := pop.Install(tbl, installed, next, 1); err != nil {
			return 0, 0, fmt.Errorf("grow: %w", err)
		}
		installed = next
		// Single goroutine: only our own inserts advance migration, so the
		// resizing state cannot change under the batch we are about to time.
		hist := scratch
		if tbl.Resizing() {
			hist = migHist
		}
		if err := serveBatch(hist); err != nil {
			return 0, 0, err
		}
	}
	for tbl.ResizeStep(64) {
	}
	if migHist.Count() == 0 {
		return 0, 0, fmt.Errorf("no batches observed while a migration was in flight (flows %d, capacity %d)",
			len(pop.Keys), tbl.Capacity())
	}

	// Steady phase: same table, migrations drained, full population.
	stdHist := stats.NewHistogramRes(stats.HighResSubBits)
	for done := int64(0); done < cfg.Ops; done += int64(cfg.Batch) {
		if err := serveBatch(stdHist); err != nil {
			return 0, 0, err
		}
	}
	return migHist.Quantile(0.99), stdHist.Quantile(0.99), nil
}

// pinnedReaderExperiment: PR 5 introduced the Reader interface, whose
// pooled Table.LookupMany entry point costs a sync.Pool round-trip per
// call; PinnedReader exists so hot loops can pin that scratch once. The
// serving API is only an acceptable default if going through a PinnedReader
// costs the same as owning the Batch directly — an equivalence claim.
func pinnedReaderExperiment() Experiment {
	return Experiment{
		Name:  "pinned-reader-equivalence",
		Title: "PinnedReader lookups are within 5% of direct Batch lookups",
		Kind:  KindEquivalence,
		ArmA:  "pinned-reader",
		ArmB:  "direct-batch",
		Run: func(cfg Config, seed uint64) (SeedResult, error) {
			pop := loadgen.NewPopulation(cfg.Flows, trafficgen.Uniform, seed)
			tbl, err := pop.NewTable(cfg.Shards)
			if err != nil {
				return SeedResult{}, err
			}
			reader := tbl.NewPinnedReader()
			pinned := func(bkeys [][]byte, results []flowserve.Result) {
				reader.LookupMany(bkeys, results)
			}
			batch := tbl.NewBatch()
			direct := func(bkeys [][]byte, results []flowserve.Result) {
				batch.LookupMany(bkeys, results)
			}
			return timeArms(pop, cfg, seed, pinned, direct)
		},
	}
}
