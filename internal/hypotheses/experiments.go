package hypotheses

import (
	"fmt"
	"os"
	"path/filepath"

	"halo/internal/flowserve"
	"halo/internal/flowwire"
	"halo/internal/loadgen"
	"halo/internal/trafficgen"
)

// shardBatchExperiment: PR 4 replaced naive per-key lookups with
// shard-grouped batching (Batch.LookupMany counting-sorts keys by shard and
// serves each group under one seqlock window). The claim riding on that
// change — "batching beats calling Lookup in a loop" — is what this
// experiment pins down across seeds. Table.Lookup is itself a one-key batch
// on pooled scratch, so the naive arm pays a pool round trip and a one-key
// sort per key.
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
			batch := tbl.NewPinnedReader()
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
