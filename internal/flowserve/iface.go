package flowserve

import "sync"

// Result is the outcome of one lookup: the stored value and whether the key
// was present. A miss is the zero Result.
type Result struct {
	Value uint64
	OK    bool
}

// Reader is the read half of the serving API: blocking single-key lookup
// (the paper's LOOKUP_B) and batched lookup (LOOKUP_NB). It is implemented
// by *Table (in-process) and by *flowwire.Client (remote over the wire
// protocol), so callers drive either backend through one code path.
//
// LookupMany fills results[i] for every key and returns the hit count;
// results must be at least len(keys) long. Keys whose length does not match
// the table's are misses. Implementations must tolerate any number of
// concurrent callers.
type Reader interface {
	Lookup(key []byte) (value uint64, ok bool)
	LookupMany(keys [][]byte, results []Result) (hits int)
}

// Writer is the mutation half of the serving API. Insert of a present key
// returns ErrKeyExists; Update and Delete report whether the key was
// present. Implementations serialise mutations internally (per shard for
// *Table), so concurrent writers are safe.
type Writer interface {
	Insert(key []byte, value uint64) error
	Update(key []byte, value uint64) bool
	Delete(key []byte) bool
}

// ReadWriter bundles both halves — what a serving backend provides.
type ReadWriter interface {
	Reader
	Writer
}

var (
	_ Reader = (*Table)(nil)
	_ Writer = (*Table)(nil)
	_ Reader = (*PinnedReader)(nil)
)

// LookupMany is the Reader batched lookup on the table itself, backed by a
// pool of Batch scratch so it is safe (and allocation-free in steady state)
// from any number of goroutines. Hot loops that want to pin their scratch
// explicitly can still own a Batch via NewBatch.
func (t *Table) LookupMany(keys [][]byte, results []Result) int {
	b := t.batchPool.Get().(*Batch)
	hits := b.LookupMany(keys, results)
	t.batchPool.Put(b)
	return hits
}

// newBatchPool builds the per-table Batch pool (count is sized to the shard
// count, so the pool must be per table).
func newBatchPool(t *Table) sync.Pool {
	return sync.Pool{New: func() any { return t.NewBatch() }}
}

// PinnedReader is a Reader over one table with its Batch scratch pinned to
// the caller: LookupMany skips the shared pool's Get/Put. That saves little.
// BenchmarkLookupManyPinnedBatch vs BenchmarkLookupManyPooled at -cpu 2, two
// sets of six alternating rounds, read medians of 805 vs 818 and 800 vs 803
// ns per 16-key batch: 0.4–1.6 %, inside either side's round-to-round
// spread. Use one per goroutine in a hot loop; a PinnedReader must not be
// shared by concurrent callers.
type PinnedReader struct {
	t *Table
	b *Batch
}

// NewPinnedReader returns a Reader with caller-pinned batch scratch.
func (t *Table) NewPinnedReader() *PinnedReader {
	return &PinnedReader{t: t, b: t.NewBatch()}
}

// Lookup delegates to the table's single-key lookup.
func (r *PinnedReader) Lookup(key []byte) (uint64, bool) { return r.t.Lookup(key) }

// LookupMany runs the batched lookup on the pinned scratch.
func (r *PinnedReader) LookupMany(keys [][]byte, results []Result) int {
	return r.b.LookupMany(keys, results)
}
