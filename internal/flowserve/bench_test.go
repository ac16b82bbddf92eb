package flowserve

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// Benchmarks pinning the cost of the two batched-lookup entry points: a
// caller-pinned Batch (what a PinnedReader holds for one goroutine) versus Table.LookupMany's pooled scratch. The pool
// Get/Put must stay in the noise relative to a 16-key batch probe.
func benchTable(b *testing.B) (*Table, [][]byte) {
	b.Helper()
	return filledTable(b, 1<<15, 4)
}

// filledTable returns a table of n resident 16-byte keys (value i+1) with an
// eighth of headroom, and the keys.
func filledTable(b *testing.B, n, shards int) (*Table, [][]byte) {
	b.Helper()
	tbl, err := New(Config{Shards: shards, Entries: uint64(n + n/8), KeyLen: 16})
	if err != nil {
		b.Fatal(err)
	}
	arena := make([]byte, n*16)
	keys := make([][]byte, n)
	for i := range keys {
		k := arena[i*16 : (i+1)*16]
		binary.LittleEndian.PutUint64(k, uint64(i)*0x9e3779b97f4a7c15+1)
		binary.LittleEndian.PutUint64(k[8:], uint64(i))
		keys[i] = k
		if err := tbl.Insert(k, uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
	return tbl, keys
}

func BenchmarkLookupManyPinnedBatch(b *testing.B) {
	tbl, keys := benchTable(b)
	batch := tbl.NewBatch()
	bkeys := make([][]byte, 16)
	results := make([]Result, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range bkeys {
			bkeys[j] = keys[(i*16+j*7)%len(keys)]
		}
		if batch.LookupMany(bkeys, results) != 16 {
			b.Fatal("miss on a resident key")
		}
	}
}

func BenchmarkLookupManyPooled(b *testing.B) {
	tbl, keys := benchTable(b)
	bkeys := make([][]byte, 16)
	results := make([]Result, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range bkeys {
			bkeys[j] = keys[(i*16+j*7)%len(keys)]
		}
		if tbl.LookupMany(bkeys, results) != 16 {
			b.Fatal("miss on a resident key")
		}
	}
}

// The two benchmarks above are one reader and no writer, which is why they
// never saw the shard's cache lines move between cores. The two below have a
// second core at work — run them with -cpu 2 — on the repository benchmark's
// churn shape: 100k flows, 8 shards, 16-key batches, once per hypotheses seed
// (the seed picks which keys are drawn; draws are made before the clock
// starts). Readers draw from the lower half of the keys, the writer churns
// the upper half, so every lookup must hit.
const contendedFlows = 100_000

func forSeeds(b *testing.B, run func(b *testing.B, tbl *Table, keys [][]byte, draws []uint32)) {
	for _, seed := range []int64{42, 123, 456} {
		b.Run(fmt.Sprintf("seed=%d", seed), func(b *testing.B) {
			tbl, keys := filledTable(b, contendedFlows, 8)
			rng := rand.New(rand.NewSource(seed))
			draws := make([]uint32, 1<<16)
			for i := range draws {
				draws[i] = uint32(rng.Intn(contendedFlows / 2))
			}
			b.ResetTimer()
			run(b, tbl, keys, draws)
		})
	}
}

// readBatches runs n 16-key LookupMany calls, walking draws from start.
func readBatches(b *testing.B, tbl *Table, keys [][]byte, draws []uint32, start, n int) {
	bkeys := make([][]byte, 16)
	results := make([]Result, 16)
	for i := 0; i < n; i++ {
		for j := range bkeys {
			bkeys[j] = keys[draws[(start+i*16+j)%len(draws)]]
		}
		if tbl.LookupMany(bkeys, results) != 16 {
			b.Error("miss on a resident key")
			return
		}
	}
}

// BenchmarkLookupManyUnderWriter times one reader while a second goroutine
// runs the churn writer's mix flat out: three Updates to one Delete+Insert.
// ns/op is the reader's; writer-ops/s is what the writer got done meanwhile.
func BenchmarkLookupManyUnderWriter(b *testing.B) {
	forSeeds(b, func(b *testing.B, tbl *Table, keys [][]byte, draws []uint32) {
		var stop atomic.Bool
		var writes uint64
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				k := keys[contendedFlows/2+int(draws[i%len(draws)])]
				if i%4 == 3 {
					tbl.Delete(k)
					if err := tbl.Insert(k, uint64(i)); err != nil {
						b.Error(err)
						return
					}
				} else {
					tbl.Update(k, uint64(i))
				}
				writes++
			}
		}()
		readBatches(b, tbl, keys, draws, 0, b.N)
		b.StopTimer()
		stop.Store(true)
		wg.Wait()
		b.ReportMetric(float64(writes)/b.Elapsed().Seconds(), "writer-ops/s")
	})
}

// BenchmarkLookupManyTwoReaders splits b.N batches over two readers of one
// table, no writer: the only shared stores are the readers' own counters.
func BenchmarkLookupManyTwoReaders(b *testing.B) {
	forSeeds(b, func(b *testing.B, tbl *Table, keys [][]byte, draws []uint32) {
		var wg sync.WaitGroup
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func(start, n int) {
				defer wg.Done()
				readBatches(b, tbl, keys, draws, start, n)
			}(r*len(draws)/2, (b.N+r)/2)
		}
		wg.Wait()
	})
}

// BenchmarkFill creates a table sized the way the repository benchmark sizes
// one (a power of two at least 1.25× the flows, 8 shards, 20-byte keys) and
// fills it, at the flow counts of its two table workloads: the set-up that
// table-zipf-churn and table-uniform-1m time as setup_s and weigh as
// mem_bytes_per_flow. ns/flow and B/flow are per resident flow; B/flow is
// every byte allocated on the way, which a fill, freeing nothing, keeps.
func BenchmarkFill(b *testing.B) {
	for _, flows := range []int{100_000, 1 << 20} {
		b.Run(fmt.Sprintf("flows=%d", flows), func(b *testing.B) {
			keys := make([][]byte, flows)
			for i := range keys {
				keys[i] = key20(uint64(i))
			}
			entries := uint64(1)
			for entries < uint64(flows)*5/4 {
				entries <<= 1
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				tbl := mustNew(b, Config{Shards: 8, Entries: entries, KeyLen: 20})
				for i, k := range keys {
					if err := tbl.Insert(k, uint64(i)); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			total := float64(b.N * flows)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/flow")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/total, "B/flow")
		})
	}
}

// BenchmarkLookupManyFlows is the table's half of the flow-count curve that
// ROADMAP item 2(a) compares with the simulator's software-lookup curve:
// 16-key pinned-batch lookups of uniformly drawn resident flows, at 16K to 4M
// flows, in a table sized as the repository benchmark sizes one (a power of
// two at least 1.25× the flows, 8 shards, 20-byte keys). Keys and draws are
// generated before the clock starts, so ns/key is the table's own; where it
// turns up against the machine's cache sizes is the knee. B/flow is the heap
// growth of the table's creation and fill, as mem_bytes_per_flow weighs it.
// Each size builds its table once, on its first round.
func BenchmarkLookupManyFlows(b *testing.B) {
	for _, flows := range []int{1 << 14, 1 << 16, 1 << 18, 1 << 20, 1 << 22} {
		var (
			tbl     *Table
			arena   []byte
			draws   []uint32
			perFlow float64
		)
		b.Run(fmt.Sprintf("flows=%d", flows), func(b *testing.B) {
			if tbl == nil {
				arena = make([]byte, flows*20)
				for i := 0; i < flows; i++ {
					copy(arena[i*20:], key20(uint64(i)))
				}
				rng := rand.New(rand.NewSource(1))
				draws = make([]uint32, 1<<20)
				for i := range draws {
					draws[i] = uint32(rng.Intn(flows))
				}
				entries := uint64(1)
				for entries < uint64(flows)*5/4 {
					entries <<= 1
				}
				heap0 := heapInuse()
				tbl = mustNew(b, Config{Shards: 8, Entries: entries, KeyLen: 20})
				for i := 0; i < flows; i++ {
					if err := tbl.Insert(arena[i*20:(i+1)*20], uint64(i)); err != nil {
						b.Fatal(err)
					}
				}
				perFlow = float64(heapInuse()-heap0) / float64(flows)
				b.ResetTimer()
			}
			batch := tbl.NewBatch()
			bkeys := make([][]byte, 16)
			results := make([]Result, 16)
			for i := 0; i < b.N; i++ {
				for j := range bkeys {
					k := int(draws[(i*16+j)&(len(draws)-1)]) * 20
					bkeys[j] = arena[k : k+20]
				}
				if batch.LookupMany(bkeys, results) != 16 {
					b.Fatal("miss on a resident key")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*16), "ns/key")
			b.ReportMetric(perFlow, "B/flow")
		})
	}
}
