package flowserve

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

// The cache-line classes of shard's fields (DESIGN.md §8, "Who writes which
// cache line"): every line of a shard holds words of one class only.
const (
	probeRead     = "probe-read + seqlock"
	readerWritten = "reader-written"
	writerOwned   = "writer-owned"
)

var shardFieldClass = map[string]string{
	"entries": probeRead, "pages": probeRead, "seq": probeRead,
	"sigMask": probeRead, "sigBits": probeRead, "kvStride": probeRead,
	"rd": readerWritten,
	"mu": writerOwned, "size": writerOwned, "c": writerOwned,
	"capacity": writerOwned, "next": writerOwned, "free": writerOwned,
	"disp": writerOwned,
}

// shardFieldLines calls line(n, class) for every 64-byte line n a field of
// the shard at base covers, after checking that the field has a class.
func shardFieldLines(t *testing.T, base uintptr, line func(n uintptr, field, class string)) {
	t.Helper()
	typ := reflect.TypeOf(shard{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Name == "_" {
			continue
		}
		c, ok := shardFieldClass[f.Name]
		if !ok {
			t.Fatalf("shard.%s has no cache-line class: add it to shardFieldClass and place it with its writers", f.Name)
		}
		first := base + f.Offset
		for n := first / cacheLine; n <= (first+f.Type.Size()-1)/cacheLine; n++ {
			line(n, f.Name, c)
		}
	}
}

// TestShardLayout guards the one-writer-per-line layout: Go offers no
// alignment directive, so the padding in shard is hand-counted and the
// 64-byte alignment of a shard comes only from its allocation size class.
// A field added in the wrong place, or one that pushes the struct past a
// multiple of the line, fails here rather than as a throughput regression.
func TestShardLayout(t *testing.T) {
	lines := map[uintptr]string{} // line number → the class that owns it
	shardFieldLines(t, 0, func(n uintptr, field, c string) {
		if owner, taken := lines[n]; taken && owner != c {
			t.Errorf("shard.%s (%s) shares line %d with a %s word", field, c, n, owner)
		}
		lines[n] = c
	})
	// A clean probe touches exactly two shard lines: the probe-read/seqlock
	// line and the reader's counters.
	for _, c := range []string{probeRead, readerWritten} {
		n := 0
		for _, owner := range lines {
			if owner == c {
				n++
			}
		}
		if n != 1 {
			t.Errorf("%s words span %d lines, want 1", c, n)
		}
	}
	if sz := unsafe.Sizeof(shard{}); sz%cacheLine != 0 {
		t.Errorf("Sizeof(shard{}) = %d, not a multiple of %d: fix the trailing pad", sz, cacheLine)
	}
	if sz := unsafe.Sizeof(readStripe{}); sz != cacheLine {
		t.Errorf("Sizeof(readStripe{}) = %d, want %d", sz, cacheLine)
	}

	for _, shards := range []int{1, 8, 64} {
		tbl := mustNew(t, Config{Shards: shards, Entries: 1024, KeyLen: 20})
		for i, sh := range tbl.shards {
			if a := uintptr(unsafe.Pointer(sh)); a%cacheLine != 0 {
				t.Errorf("shards=%d: shard %d at %#x is not %d-byte aligned", shards, i, a, cacheLine)
			}
		}
		if len(tbl.stripes) != batchStripes {
			t.Fatalf("table has %d stripes, want %d", len(tbl.stripes), batchStripes)
		}
		for i := range tbl.stripes {
			if a := uintptr(unsafe.Pointer(&tbl.stripes[i])); a%cacheLine != 0 {
				t.Errorf("shards=%d: stripe %d at %#x is not %d-byte aligned", shards, i, a, cacheLine)
			}
		}
	}
}

// TestShardLinesDisjoint looks past the struct to the heap: in a table of 8
// shards, no 64-byte line at any real address holds words of two classes,
// whether the words belong to one shard or to two. A probe-read line that
// also held a writer-owned word would be taken from every reader of the
// shard by each insert and delete; TestShardLayout sees only offsets, so it
// cannot catch a shard's words landing beside another object's.
func TestShardLinesDisjoint(t *testing.T) {
	tbl := mustNew(t, Config{Shards: 8, Entries: 8 * 1024, KeyLen: 20})
	type owner struct {
		shard int
		field string
		class string
	}
	lines := map[uintptr]owner{}
	for i, sh := range tbl.shards {
		shardFieldLines(t, uintptr(unsafe.Pointer(sh)), func(n uintptr, field, c string) {
			if o, taken := lines[n]; taken && o.class != c {
				t.Errorf("line %#x holds shard %d's %s (%s) and shard %d's %s (%s)",
					n*cacheLine, i, field, c, o.shard, o.field, o.class)
			}
			lines[n] = owner{i, field, c}
		})
	}
}

// TestEntriesLineAligned guards the one-line bucket probe: a bucket is
// EntriesPerBucket 4-byte entries, 32 bytes, and it sits within one 64-byte
// line only if the entry array starts on a line. As with the shard, Go gives
// no alignment directive; the array is pointer-free and a power-of-two
// multiple of 64 bytes, so its size class (or, past 32 KiB, its own span)
// aligns it.
func TestEntriesLineAligned(t *testing.T) {
	if sz := EntriesPerBucket * unsafe.Sizeof(atomic.Uint32{}); sz != cacheLine/2 {
		t.Fatalf("a bucket is %d bytes, want %d", sz, cacheLine/2)
	}
	for bc := uint64(2); bc <= 1<<18; bc <<= 1 {
		sh := newShard(bc*EntriesPerBucket, 20)
		if got := sh.bucketCount(); got != bc {
			t.Fatalf("newShard(%d) has %d buckets, want %d", bc*EntriesPerBucket, got, bc)
		}
		if a := uintptr(unsafe.Pointer(&sh.entries[0])); a%cacheLine != 0 {
			t.Errorf("%d buckets: entries at %#x are not %d-byte aligned", bc, a, cacheLine)
		}
	}
}

// TestStatsHitsNeverExceedLookups takes snapshots while a reader hammers
// resident keys through both read paths. Every lookup is a hit, so any skew
// between the two counters shows at once; a snapshot with Hits > Lookups
// would publish Misses ≈ 2^64.
func TestStatsHitsNeverExceedLookups(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	const n = 512
	tbl := mustNew(t, Config{Shards: 4, Entries: 1024, KeyLen: 20})
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = key20(uint64(i))
		if err := tbl.Insert(keys[i], uint64(i)+1); err != nil {
			t.Fatal(err)
		}
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		results := make([]Result, 16)
		for i := 0; !stop.Load(); i++ {
			if i%2 == 0 {
				tbl.Lookup(keys[i%n])
			} else {
				lo := i % (n - 16)
				tbl.LookupMany(keys[lo:lo+16], results)
			}
		}
	}()

	const snapshots = 400_000
	wrapped := 0
	var first TableStats
	for i := 0; i < snapshots; i++ {
		if s := tbl.Stats(); s.Hits > s.Lookups {
			if wrapped == 0 {
				first = s
			}
			wrapped++
		}
	}
	stop.Store(true)
	wg.Wait()
	if wrapped > 0 {
		t.Fatalf("%d of %d snapshots had Hits > Lookups; first: hits %d lookups %d misses %d",
			wrapped, snapshots, first.Hits, first.Lookups, first.Misses)
	}
	if s := tbl.Stats(); s.Hits != s.Lookups || s.Misses != 0 || s.BatchKeys == 0 || s.BatchKeys >= s.Lookups {
		t.Fatalf("quiescent stats not exact: %+v", s)
	}
}
