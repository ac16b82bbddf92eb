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
	_ Reader = (*Batch)(nil)
)

// LookupMany is the Reader batched lookup on the table itself, backed by a
// pool of Batch scratch so it is safe (and allocation-free in steady state)
// from any number of goroutines. Hot loops that want to pin their scratch
// explicitly can own a Batch via NewPinnedReader.
func (t *Table) LookupMany(keys [][]byte, results []Result) int {
	b := t.batchPool.Get().(*Batch)
	hits := b.LookupMany(keys, results)
	t.batchPool.Put(b)
	return hits
}

// newBatchPool builds the per-table Batch pool (count is sized to the shard
// count, so the pool must be per table).
func newBatchPool(t *Table) sync.Pool {
	return sync.Pool{New: func() any { return t.NewPinnedReader() }}
}
