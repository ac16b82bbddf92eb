package main

import (
	"bytes"
	"fmt"
	"time"

	"halo/internal/flowserve"
	"halo/internal/flowwire"
)

// The ladder replays one key stream — wire-tcp-batch16's, batch 16, one
// caller — through every layer a lookup can cross, from the bare table to the
// 3-node router. Rungs differ only in the layer, so a rung minus the rung
// below is the cost that layer adds.
const (
	ladderWorkload = "wire-tcp-batch16"
	ladderBatch    = 16
	ladderBatches  = 4096 // batches replayed per pass
	rungTime       = 400 * time.Millisecond
)

// runLadder measures every rung over the traced run's flows and first key
// stream, and records one ladder.<rung> span per rung.
func runLadder(res *runResult, e *env, sockDir string) error {
	s, table := e.streams[0], e.tables[0]
	out := make([]flowserve.Result, ladderBatch)
	var spans []span
	// rung replays the ladder's batches through call until rungTime has passed
	// (whole passes only) and sets metric to nanoseconds per key. call returns
	// its hits, and every key must hit: the stream has no absent flows.
	rung := func(metric string, call func(keys [][]byte, out []flowserve.Result) int) error {
		start := time.Now()
		var keys, hits int
		for time.Since(start) < rungTime {
			for b := 0; b < ladderBatches; b++ {
				hits += call(s.keys[b*ladderBatch:(b+1)*ladderBatch], out)
			}
			keys += ladderBatches * ladderBatch
		}
		elapsed := time.Since(start).Nanoseconds()
		res.attempted += uint64(keys)
		if hits != keys {
			res.failed += uint64(keys - hits)
			return fmt.Errorf("%s: %d of %d keys hit", metric, hits, keys)
		}
		spans = append(spans, span{ID: uint64(len(spans) + 1), Req: 1, Name: "ladder." + metric, End: elapsed})
		res.set(metric, float64(elapsed)/float64(keys))
		return nil
	}

	if err := rung("flowserve.lookup.ns_per_key", func(keys [][]byte, out []flowserve.Result) (hits int) {
		for _, k := range keys {
			if _, ok := table.Lookup(k); ok {
				hits++
			}
		}
		return hits
	}); err != nil {
		return err
	}
	if err := rung("flowserve.pinned.ns_per_key", table.NewPinnedReader().LookupMany); err != nil {
		return err
	}
	if err := rung("flowserve.lookupmany.ns_per_key", table.LookupMany); err != nil {
		return err
	}

	// Codec: encode and decode one request-sized frame per batch (a 16-key
	// LOOKUP_MANY payload is 6 + 16×20 bytes), no socket in between.
	frame := flowwire.Frame{Op: flowwire.OpLookupMany, Payload: make([]byte, 6+ladderBatch*len(s.keys[0]))}
	var wire, payload []byte
	var rd bytes.Reader
	var decoded flowwire.Frame
	if err := rung("flowwire.codec.ns_per_frame", func(keys [][]byte, _ []flowserve.Result) int {
		frame.ReqID++
		wire = flowwire.AppendFrame(wire[:0], &frame)
		rd.Reset(wire)
		var err error
		if payload, err = flowwire.ReadFrameInto(&rd, 0, &decoded, payload); err != nil || decoded.ReqID != frame.ReqID {
			return 0
		}
		return len(keys)
	}); err != nil {
		return err
	}
	res.set("flowwire.codec.ns_per_frame", res.metrics["flowwire.codec.ns_per_frame"]*ladderBatch) // per frame, not per key

	// Every wire and router rung serves the same flows from its own freshly
	// filled table, built exactly as the workloads build theirs.
	over := func(metric, transport string, nodes int) error {
		be := &env{pop: e.pop}
		defer be.close()
		cs := servingSpec{name: "ladder", flows: e.pop.resident, transport: transport, nodes: nodes}
		if err := cs.backend(be, sockDir); err != nil {
			return err
		}
		if nodes == 3 {
			m := be.router.Map()
			if err := rung("flowcluster.shardmap.owner_ns_per_key", func(keys [][]byte, _ []flowserve.Result) int {
				for _, k := range keys {
					if m.OwnerOfKey(k) >= nodes {
						return 0
					}
				}
				return len(keys)
			}); err != nil {
				return err
			}
		}
		if err := rung(metric, be.rw.LookupMany); err != nil {
			return err
		}
		lost, err := be.close()
		if lost > 0 && err == nil {
			err = fmt.Errorf("%s: %d replies lost at drain", metric, lost)
		}
		return err
	}
	for _, r := range []struct {
		metric, transport string
		nodes             int
	}{
		{"flowwire.shm.ns_per_key", flowwire.TransportShm, 0},
		{"flowwire.unix.ns_per_key", flowwire.TransportUnix, 0},
		{"flowwire.tcp.ns_per_key", flowwire.TransportTCP, 0},
		{"flowcluster.route1.ns_per_key", flowwire.TransportTCP, 1},
		{"flowcluster.route3.ns_per_key", flowwire.TransportTCP, 3},
	} {
		if err := over(r.metric, r.transport, r.nodes); err != nil {
			return err
		}
	}

	get := func(name string) float64 { return res.metrics[name] }
	res.set("flowwire.tcp.added_ns_per_key", get("flowwire.tcp.ns_per_key")-get("flowserve.lookupmany.ns_per_key"))
	res.set("flowcluster.route1.added_ns_per_key", get("flowcluster.route1.ns_per_key")-get("flowwire.tcp.ns_per_key"))
	res.set("flowcluster.fanout.added_ns_per_key", get("flowcluster.route3.ns_per_key")-get("flowcluster.route1.ns_per_key"))
	res.traces = append(res.traces, workloadTrace{Workload: "ladder", Seed: res.seed, Spans: spans})
	return nil
}
