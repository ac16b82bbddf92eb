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
			batch := tbl.NewBatch()
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

// TestResizeStress is the randomized audit of incremental resize under
// concurrency (run under -race: CI does). A grower floods inserts into an
// auto-grow table, forcing several shard doublings, while churn writers,
// a ResizeStep ticker and batch/single readers all run against the moving
// regions. Same key-class invariants as TestSeqlockStress: residents always
// hit with their own value, ghosts never hit, churn hits carry the key's own
// value — through every migration. The lookup ledger is exact too: the
// table's Lookups counter grows by exactly the keys the readers issued, at
// least one batch of them while a migration was in flight.
func TestResizeStress(t *testing.T) {
	const (
		residents = 1000
		churners  = 1000
		ghosts    = 1000
		growKeys  = 20_000 // grower inserts force >= 3 doublings per shard
		readers   = 3
		readerOps = 20_000
		writerOps = 10_000
	)
	tbl := mustNew(t, Config{
		Shards: 2, Entries: 4096, KeyLen: 20, GrowAt: 0.8,
	})

	// Key index spaces: [0,residents) resident, then churn, then ghost, then
	// the grower's fresh keys.
	const growBase = residents + churners + ghosts
	key := func(i uint64) []byte { return key20(i) }
	for i := uint64(0); i < residents; i++ {
		if err := tbl.Insert(key(i), valueFor(i)); err != nil {
			t.Fatalf("seed insert %d: %v", i, err)
		}
	}

	var fail atomic.Value
	report := func(msg string) { fail.CompareAndSwap(nil, msg) }
	var done atomic.Bool
	var issued, midResize atomic.Uint64 // keys the readers looked up; batches issued mid-migration
	lookupsBefore := tbl.Stats().Lookups

	var wg sync.WaitGroup

	// Grower: monotonically expands the key set, tripping threshold grows.
	// The readers keep going until it is done, so they overlap every grow.
	var grown atomic.Bool
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer grown.Store(true)
		for i := uint64(0); i < growKeys && fail.Load() == nil; i++ {
			if err := tbl.Insert(key(growBase+i), valueFor(growBase+i)); err != nil {
				report("grower Insert with auto-grow on: " + err.Error())
				return
			}
		}
	}()

	// Stepper: external migration ticks racing the writers' amortised ones.
	// Its own WaitGroup — it runs until everyone else is done.
	var stepWg sync.WaitGroup
	stepWg.Add(1)
	go func() {
		defer stepWg.Done()
		for !done.Load() && fail.Load() == nil {
			tbl.ResizeStep(1)
			runtime.Gosched()
		}
	}()

	// Churn writers.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := sim.NewRand(seed)
			for op := 0; op < writerOps && fail.Load() == nil; op++ {
				i := residents + rng.Uint64n(churners)
				k := key(i)
				if rng.Uint64()&1 == 0 {
					if err := tbl.Insert(k, valueFor(i)); err != nil && err != ErrKeyExists && err != ErrTableFull {
						report("churn Insert: " + err.Error())
					}
				} else {
					tbl.Delete(k)
				}
			}
		}(0x9e51<<8 | uint64(w))
	}

	checkHit := func(i uint64, v uint64, ok bool, class string) {
		switch {
		case !ok && class == "resident":
			report("resident key missed during resize")
		case ok && class == "ghost":
			report("ghost key hit during resize (phantom match)")
		case ok && v != valueFor(i):
			report(class + " key hit with a foreign value during resize (torn read)")
		}
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := sim.NewRand(seed)
			const batchSize = 32
			batch := tbl.NewBatch()
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
			for op := 0; (op < readerOps || !grown.Load()) && fail.Load() == nil; op++ {
				if op%8 == 0 {
					for j := range keys {
						idx[j] = drawKey()
						keys[j] = key(idx[j])
					}
					if tbl.Resizing() {
						midResize.Add(1)
					}
					batch.LookupMany(keys, results)
					issued.Add(batchSize)
					for j := range keys {
						checkHit(idx[j], results[j].Value, results[j].OK, class(idx[j]))
					}
				} else {
					i := drawKey()
					v, ok := tbl.Lookup(key(i))
					issued.Add(1)
					checkHit(i, v, ok, class(i))
				}
			}
		}(0x6e0a<<8 | uint64(r))
	}

	wg.Wait()
	done.Store(true)
	stepWg.Wait()
	if msg := fail.Load(); msg != nil {
		t.Fatal(msg)
	}
	if served := tbl.Stats().Lookups - lookupsBefore; served != issued.Load() {
		t.Fatalf("lookup ledger off by %d: readers issued %d keys, the table counted %d",
			int64(served-issued.Load()), issued.Load(), served)
	}
	if midResize.Load() == 0 {
		t.Fatal("no reader batch was issued while a migration was in flight")
	}
	t.Logf("%d reader batches issued mid-migration", midResize.Load())
	for tbl.ResizeStep(64) {
	}

	// Post-quiescence: every resident and grower key present with its own
	// value, and the run actually forced the doublings it was sized for.
	for i := uint64(0); i < residents; i++ {
		if v, ok := tbl.Lookup(key(i)); !ok || v != valueFor(i) {
			t.Fatalf("resident key %d = (%d,%v) after resize stress, want (%d,true)", i, v, ok, valueFor(i))
		}
	}
	for i := uint64(0); i < growKeys; i++ {
		if v, ok := tbl.Lookup(key(growBase + i)); !ok || v != valueFor(growBase+i) {
			t.Fatalf("grower key %d = (%d,%v) after resize stress", i, v, ok)
		}
	}
	s := tbl.Stats()
	if s.Grows < 6 {
		t.Fatalf("Grows = %d, want >= 6 (>= 3 doublings on each of 2 shards): %+v", s.Grows, s)
	}
	if s.MigratedKeys == 0 || s.ResizeSteps == 0 {
		t.Fatalf("resize stress migrated nothing: %+v", s)
	}
	t.Logf("resize stress stats: %+v", s)
}

// TestPublishAcrossPageBoundary races readers against the allocation of
// slot pages (run it under -race: CI does). One writer inserts fresh keys
// into a one-shard table, so its slots run in order across nine page
// boundaries, and publishes each key's index once Insert returns. Readers
// look up the newest published keys, whose slots may sit on a page allocated
// a moment before; every one must hit with its own value.
func TestPublishAcrossPageBoundary(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	const (
		n       = 9*pageSlots + 100
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
			batch := tbl.NewBatch()
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
	for _, page := range tbl.shards[0].regions.Load().cur.pages {
		if page != nil {
			allocated++
		}
	}
	if allocated < 9 {
		t.Fatalf("%d keys filled %d pages, want >= 9 (8 boundaries crossed)", n, allocated)
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
