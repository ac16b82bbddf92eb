package flowwire

import (
	"sync"
	"sync/atomic"
	"testing"

	"halo/internal/flowserve"
	"halo/internal/sim"
)

// TestLoopbackStress is the wire-level counterpart of flowserve's
// TestSeqlockStress (run under -race: CI does): concurrent remote readers
// over pooled pipelined connections race a remote churn writer and a local
// in-process writer mutating the same table behind the server. The key
// universe splits the same way — resident keys must always hit with their
// exact value, churn keys may miss but a hit must carry the key's own
// value, ghost keys must never hit — which catches torn reads, reply
// misrouting (a reqID mix-up would pair a reply with the wrong batch) and
// coalescer ordering bugs in one net.
func TestLoopbackStress(t *testing.T) {
	const (
		residents = 1200
		churners  = 1200
		ghosts    = 1200
		clients   = 2
		readersPC = 3 // reader goroutines per client
		readerOps = 1500
		writerOps = 4000
	)
	srv, tbl, addr := startServer(t,
		flowserve.Config{Shards: 4, Entries: residents + churners + 2048, KeyLen: 20},
		Config{})
	defer srv.Close()

	valueFor := func(i uint64) uint64 { return i*0x9e3779b9 + 1 }
	for i := uint64(0); i < residents; i++ {
		if err := tbl.Insert(wkey(i), valueFor(i)); err != nil {
			t.Fatalf("seed insert %d: %v", i, err)
		}
	}

	var fail atomic.Value
	report := func(msg string) { fail.CompareAndSwap(nil, msg) }

	var wg sync.WaitGroup

	// Local writer: in-process churn on the shared table, as a collocated
	// NF would do next to the server.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := sim.NewRand(0x10ca1)
		for op := 0; op < writerOps && fail.Load() == nil; op++ {
			i := residents + rng.Uint64n(churners)
			if rng.Uint64()&1 == 0 {
				err := tbl.Insert(wkey(i), valueFor(i))
				if err != nil && err != flowserve.ErrKeyExists && err != flowserve.ErrTableFull {
					report("local writer Insert: " + err.Error())
				}
			} else {
				tbl.Delete(wkey(i))
			}
		}
	}()

	for ci := 0; ci < clients; ci++ {
		cl := dialTest(t, addr, Options{Conns: 2})

		// Remote churn writer on this client.
		wg.Add(1)
		go func(cl *Client, seed uint64) {
			defer wg.Done()
			rng := sim.NewRand(seed)
			for op := 0; op < writerOps/2 && fail.Load() == nil; op++ {
				i := residents + rng.Uint64n(churners)
				if rng.Uint64()&1 == 0 {
					err := cl.Insert(wkey(i), valueFor(i))
					if err != nil && err != flowserve.ErrKeyExists && err != flowserve.ErrTableFull {
						report("remote writer Insert: " + err.Error())
					}
				} else {
					cl.Delete(wkey(i))
				}
			}
		}(cl, 0xa110<<8|uint64(ci))

		for r := 0; r < readersPC; r++ {
			wg.Add(1)
			go func(cl *Client, seed uint64) {
				defer wg.Done()
				rng := sim.NewRand(seed)
				const batch = 24
				keys := make([][]byte, batch)
				idx := make([]uint64, batch)
				results := make([]flowserve.Result, batch)
				for op := 0; op < readerOps && fail.Load() == nil; op++ {
					for j := range keys {
						var i uint64
						switch rng.Uint64n(3) {
						case 0:
							i = rng.Uint64n(residents)
						case 1:
							i = residents + rng.Uint64n(churners)
						default:
							i = residents + churners + rng.Uint64n(ghosts)
						}
						idx[j] = i
						keys[j] = wkey(i)
					}
					if op%8 == 0 {
						// Exercise the single-key LOOKUP path too.
						i := idx[0]
						v, ok := cl.Lookup(keys[0])
						checkStress(report, i, v, ok, residents, churners, valueFor)
						continue
					}
					cl.LookupMany(keys, results)
					if cl.Err() != nil {
						report("client transport error: " + cl.Err().Error())
						return
					}
					for j := range keys {
						checkStress(report, idx[j], results[j].Value, results[j].OK, residents, churners, valueFor)
					}
				}
			}(cl, 0x4ead<<8|uint64(ci*readersPC+r))
		}
	}
	wg.Wait()
	if msg := fail.Load(); msg != nil {
		t.Fatal(msg)
	}

	// Post-quiescence: residents intact through the wire, and the server
	// actually coalesced pipelined traffic.
	cl := dialTest(t, addr, Options{})
	for i := uint64(0); i < residents; i += 7 {
		if v, ok := cl.Lookup(wkey(i)); !ok || v != valueFor(i) {
			t.Fatalf("resident %d = (%d,%v) after stress", i, v, ok)
		}
	}
	snap, err := cl.StatsSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	counters := snap.Counters
	if counters["flowwire.frames.accepted"] == 0 || counters["flowserve.lookups"] == 0 {
		t.Fatalf("stress exercised nothing: %v", counters)
	}
	t.Logf("stress: %d frames, %d coalesce calls for %d frames, %d lookups, %d seqlock retries",
		counters["flowwire.frames.accepted"], counters["flowwire.coalesce.calls"],
		counters["flowwire.coalesce.frames"], counters["flowserve.lookups"],
		counters["flowserve.lookup.retries"])
}

// checkStress classifies a key index and validates its lookup outcome.
func checkStress(report func(string), i, v uint64, ok bool, residents, churners uint64, valueFor func(uint64) uint64) {
	switch {
	case i < residents:
		if !ok {
			report("resident key missed over the wire")
		} else if v != valueFor(i) {
			report("resident key hit with a foreign value")
		}
	case i < residents+churners:
		if ok && v != valueFor(i) {
			report("churn key hit with a foreign value (torn or misrouted reply)")
		}
	default:
		if ok {
			report("ghost key hit: a value for a key never inserted")
		}
	}
}
