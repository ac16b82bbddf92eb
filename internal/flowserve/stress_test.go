package flowserve

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"halo/internal/sim"
)

// valueFor derives the value every stress writer installs for a key index,
// so readers can verify any hit against the key alone.
func valueFor(i uint64) uint64 { return i*0x9e3779b9 + 1 }

// TestSeqlockStress is the randomized reader/writer audit of the seqlock
// (run it under -race: CI does). Key universe:
//
//   - resident keys: inserted before the run and never touched — every
//     lookup MUST hit with the exact value;
//   - churn keys: concurrently inserted and deleted — a lookup may hit or
//     miss, but a hit MUST carry the key's own value;
//   - ghost keys: never inserted — a lookup MUST NOT hit. A phantom hit
//     here is exactly the cross-word key tear the seqlock exists to
//     prevent (e.g. a reader mixing old and new key words across a slot
//     recycle).
func TestSeqlockStress(t *testing.T) {
	const (
		residents = 1500
		churners  = 1500
		ghosts    = 1500
		readers   = 4
		writers   = 2
		readerOps = 30_000
		writerOps = 15_000
	)
	tbl := mustNew(t, Config{Shards: 4, Entries: residents + churners + 2048, KeyLen: 20})

	// Key index spaces: [0,residents) resident, [residents, residents+churners)
	// churn, [residents+churners, ...) ghost.
	key := func(i uint64) []byte { return key20(i) }
	for i := uint64(0); i < residents; i++ {
		if err := tbl.Insert(key(i), valueFor(i)); err != nil {
			t.Fatalf("seed insert %d: %v", i, err)
		}
	}

	var fail atomic.Value // first failure message, if any
	report := func(msg string) {
		fail.CompareAndSwap(nil, msg)
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := sim.NewRand(seed)
			for op := 0; op < writerOps && fail.Load() == nil; op++ {
				i := residents + rng.Uint64n(churners)
				k := key(i)
				if rng.Uint64()&1 == 0 {
					if err := tbl.Insert(k, valueFor(i)); err != nil && err != ErrKeyExists && err != ErrTableFull {
						report("writer Insert: " + err.Error())
					}
				} else {
					tbl.Delete(k)
				}
			}
		}(0xa110<<8 | uint64(w))
	}

	checkHit := func(i uint64, v uint64, ok bool, class string) {
		switch {
		case !ok && class == "resident":
			report("resident key missed")
		case ok && class == "ghost":
			report("ghost key hit: reader observed a value for a key never inserted")
		case ok && v != valueFor(i):
			report(class + " key hit with a foreign value (torn read)")
		}
	}

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := sim.NewRand(seed)
			const batchSize = 32
			batch := tbl.NewPinnedReader()
			keys := make([][]byte, batchSize)
			idx := make([]uint64, batchSize)
			results := make([]Result, batchSize)
			drawKey := func() uint64 {
				switch rng.Uint64n(3) {
				case 0:
					return rng.Uint64n(residents)
				case 1:
					return residents + rng.Uint64n(churners)
				default:
					return residents + churners + rng.Uint64n(ghosts)
				}
			}
			class := func(i uint64) string {
				switch {
				case i < residents:
					return "resident"
				case i < residents+churners:
					return "churn"
				default:
					return "ghost"
				}
			}
			for op := 0; op < readerOps && fail.Load() == nil; op++ {
				if op%8 == 0 { // every 8th op is a whole batch
					for j := range keys {
						idx[j] = drawKey()
						keys[j] = key(idx[j])
					}
					if op%16 == 0 {
						batch.LookupMany(keys, results)
					} else {
						// The pooled Table.LookupMany path shares Batch
						// scratch across goroutines; stress it too.
						tbl.LookupMany(keys, results)
					}
					for j := range keys {
						checkHit(idx[j], results[j].Value, results[j].OK, class(idx[j]))
					}
				} else {
					i := drawKey()
					v, ok := tbl.Lookup(key(i))
					checkHit(i, v, ok, class(i))
				}
			}
		}(0x4ead<<8 | uint64(r))
	}
	wg.Wait()
	if msg := fail.Load(); msg != nil {
		t.Fatal(msg)
	}

	// Post-quiescence: residents all present, ghosts all absent, and the
	// lookup counters actually moved.
	for i := uint64(0); i < residents; i++ {
		if v, ok := tbl.Lookup(key(i)); !ok || v != valueFor(i) {
			t.Fatalf("resident key %d = (%d,%v) after stress, want (%d,true)", i, v, ok, valueFor(i))
		}
	}
	s := tbl.Stats()
	if s.Lookups == 0 || s.Inserts == 0 || s.Deletes == 0 {
		t.Fatalf("stress exercised nothing: %+v", s)
	}
	t.Logf("stress stats: %+v", s)
}

// TestLookupLedgerUnderChurn is the exact lookup ledger (run it under -race:
// CI does): readers on both read paths race a churn writer, so probes are
// retried and now and then settled under the lock, and the table's Lookups
// counter must still grow by exactly the keys the readers issued — a key
// counts once however many attempts it took.
func TestLookupLedgerUnderChurn(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	const (
		keys      = 2048
		readers   = 2
		readerOps = 20_000
		batchSize = 16
	)
	tbl := mustNew(t, Config{Shards: 2, Entries: 2 * keys, KeyLen: 20})
	before := tbl.Stats().Lookups

	var stop atomic.Bool
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		rng := sim.NewRand(0x1ed9e)
		for !stop.Load() {
			i := rng.Uint64n(keys)
			if err := tbl.Insert(key20(i), valueFor(i)); err == ErrKeyExists {
				tbl.Delete(key20(i))
			}
		}
	}()

	var issued atomic.Uint64
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := sim.NewRand(seed)
			batch := tbl.NewPinnedReader()
			bkeys := make([][]byte, batchSize)
			results := make([]Result, batchSize)
			for op := 0; op < readerOps; op++ {
				switch op % 4 {
				case 0, 1:
					tbl.Lookup(key20(rng.Uint64n(keys)))
					issued.Add(1)
					continue
				case 2:
					for j := range bkeys {
						bkeys[j] = key20(rng.Uint64n(keys))
					}
					batch.LookupMany(bkeys, results)
				case 3:
					for j := range bkeys {
						bkeys[j] = key20(rng.Uint64n(keys))
					}
					tbl.LookupMany(bkeys, results)
				}
				issued.Add(batchSize)
			}
		}(0x1ed6e<<8 | uint64(r))
	}
	wg.Wait()
	stop.Store(true)
	writer.Wait()

	s := tbl.Stats()
	if served := s.Lookups - before; served != issued.Load() {
		t.Fatalf("lookup ledger off by %d: readers issued %d keys, the table counted %d",
			int64(served-issued.Load()), issued.Load(), served)
	}
	if s.Inserts == 0 || s.Deletes == 0 {
		t.Fatalf("the writer churned nothing: %+v", s)
	}
	t.Logf("ledger stats: %+v", s)
}

// TestPublishAcrossPageBoundary races readers against the allocation of
// slot pages (run it under -race: CI does). One writer inserts fresh keys
// into a one-shard table, so its slots run in order across 36 page
// boundaries, and publishes each key's index once Insert returns. Readers
// look up the newest published keys, whose slots may sit on a page allocated
// a moment before; every one must hit with its own value.
func TestPublishAcrossPageBoundary(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	const (
		pages   = 37
		n       = (pages-1)*pageSlots + 100
		readers = 2
		span    = 16
	)
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = key20(uint64(i))
	}
	tbl := mustNew(t, Config{Shards: 1, Entries: n, KeyLen: 20})

	var published atomic.Int64 // keys[:published] are resident
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			batch := tbl.NewPinnedReader()
			results := make([]Result, span)
			for p := int64(0); p < n; {
				if p = published.Load(); p < span {
					runtime.Gosched()
					continue
				}
				i := p - 1
				if v, ok := tbl.Lookup(keys[i]); !ok || v != valueFor(uint64(i)) {
					t.Errorf("Lookup of published key %d = (%d,%v), want (%d,true)", i, v, ok, valueFor(uint64(i)))
					return
				}
				batch.LookupMany(keys[p-span:p], results)
				for j, res := range results {
					if k := p - span + int64(j); !res.OK || res.Value != valueFor(uint64(k)) {
						t.Errorf("LookupMany of published key %d = %+v, want (%d,true)", k, res, valueFor(uint64(k)))
						return
					}
				}
			}
		}()
	}
	for i := range keys {
		if err := tbl.Insert(keys[i], valueFor(uint64(i))); err != nil {
			t.Errorf("Insert %d: %v", i, err)
			break
		}
		published.Store(int64(i + 1))
	}
	published.Store(n) // release the readers even if an insert failed
	wg.Wait()
	allocated := 0
	for _, page := range tbl.shards[0].pages {
		if page != nil {
			allocated++
		}
	}
	if allocated < pages {
		t.Fatalf("%d keys filled %d pages, want %d (%d boundaries crossed)", n, allocated, pages, pages-1)
	}
}

// TestConcurrentWritersDistinctShardsProgress checks writer parallelism is
// real: writers pinned to different shards make progress concurrently
// (the per-shard mutex is not accidentally global).
func TestConcurrentWritersDistinctShards(t *testing.T) {
	tbl := mustNew(t, Config{Shards: 8, Entries: 1 << 15, KeyLen: 20})
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	if workers > 8 {
		workers = 8
	}
	perWorker := uint64(2000)
	var inserted atomic.Uint64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w uint64) {
			defer wg.Done()
			for i := uint64(0); i < perWorker; i++ {
				k := key20(w*1_000_000 + i)
				if err := tbl.Insert(k, w); err == nil {
					inserted.Add(1)
				} else if err != ErrTableFull {
					t.Errorf("Insert: %v", err)
					return
				}
			}
		}(uint64(w))
	}
	wg.Wait()
	if got := tbl.Size(); got != inserted.Load() {
		t.Fatalf("Size = %d, inserted %d", got, inserted.Load())
	}
}
