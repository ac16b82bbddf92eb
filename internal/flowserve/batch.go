package flowserve

import "halo/internal/hashfn"

// Batch is a Reader over one table with its lookup scratch pinned to the
// caller: it skips the shared pool's Get/Put that Table.Lookup and
// Table.LookupMany pay. That saves little: BenchmarkLookupManyPinnedBatch vs
// BenchmarkLookupManyPooled at -cpu 2, two sets of six alternating rounds,
// read medians of 805 vs 818 and 800 vs 803 ns per 16-key batch, 0.4–1.6 %,
// inside either side's round-to-round spread. Like HALO's non-blocking
// lookup window, a batch belongs to one issuing context: a Batch is NOT safe
// for concurrent use, but any number of goroutines may run their own batches
// against the same table concurrently.
type Batch struct {
	t      *Table
	stripe *readStripe // where this batch's calls are counted

	kw    [][maxKeyWords]uint64
	h     []uint64
	shard []uint32

	count []uint32 // per-shard key count, then prefix-summed into offsets
	order []uint32 // key indices grouped by shard
}

// NewPinnedReader returns an empty batch for the table, counting in the next
// of its stripes.
func (t *Table) NewPinnedReader() *Batch {
	stripe := &t.stripes[t.nextStripe.Add(1)%batchStripes]
	return &Batch{t: t, stripe: stripe, count: make([]uint32, len(t.shards)+1)}
}

// grow sizes the scratch for n keys.
func (b *Batch) grow(n int) {
	if cap(b.kw) < n {
		b.kw = make([][maxKeyWords]uint64, n)
		b.h = make([]uint64, n)
		b.shard = make([]uint32, n)
		b.order = make([]uint32, n)
	}
	b.kw = b.kw[:n]
	b.h = b.h[:n]
	b.shard = b.shard[:n]
	b.order = b.order[:n]
}

// Lookup finds one key: a one-key LookupMany, as LOOKUP_B is a LOOKUP_NB
// whose issuer waits for the result.
func (b *Batch) Lookup(key []byte) (value uint64, ok bool) {
	keys := [1][]byte{key}
	var res [1]Result
	b.LookupMany(keys[:], res[:])
	return res[0].Value, res[0].OK
}

// LookupMany looks up all keys, writing results[i] for each, and returns
// the number of hits. It is the software analogue of issuing LOOKUP_NB per
// key and polling completions with SNAPSHOT_READ: an issue pass hashes and
// routes every key, then each shard's group of keys is probed under a
// single seqlock window, amortising the read protocol (and its cache-line
// traffic) over the group.
//
// The issue pass records only the primary hash per key; the shard derives
// candidate buckets and the signature from it inside the probe. Keys of the
// wrong length are misses counted in the table-level badlen counter.
// results must be at least len(keys) long.
func (b *Batch) LookupMany(keys [][]byte, results []Result) int {
	t := b.t
	n := len(keys)
	_ = results[:n]
	b.grow(n)

	// Issue pass: hash and shard per key.
	badLen := uint64(0)
	for i, key := range keys {
		if len(key) != t.keyLen {
			b.shard[i] = uint32(len(t.shards)) // route to the overflow group
			badLen++
			continue
		}
		keyToWords(key, &b.kw[i])
		h := hashfn.Hash(hashfn.SeedPrimary, key)
		b.h[i] = h
		b.shard[i] = uint32(hashfn.ShardIndex(h, uint64(len(t.shards))))
	}

	// Group keys by shard with a counting sort (stable, allocation-free).
	for i := range b.count {
		b.count[i] = 0
	}
	for _, si := range b.shard {
		if si < uint32(len(t.shards)) {
			b.count[si]++
		}
	}
	var off uint32
	for i := range b.count {
		c := b.count[i]
		b.count[i] = off
		off += c
	}
	order := b.order[:off]
	for i, si := range b.shard {
		if si < uint32(len(t.shards)) {
			order[b.count[si]] = uint32(i)
			b.count[si]++
		}
	}
	// b.count[si] is now the end offset of shard si's group.

	hits, groups := 0, uint64(0)
	start := uint32(0)
	for si := 0; si < len(t.shards); si++ {
		end := b.count[si]
		if end == start {
			continue
		}
		hits += b.lookupGroup(t.shards[si], order[start:end], results)
		groups++
		start = end
	}
	if groups > 0 {
		// One flush per call, keys before hits so that no snapshot of the
		// stripe shows more hits than lookups.
		b.stripe.groups.Add(groups)
		b.stripe.keys.Add(uint64(off))
		b.stripe.hits.Add(uint64(hits))
	}
	if badLen > 0 {
		t.badLen.Add(badLen)
		for i, key := range keys {
			if len(key) != t.keyLen {
				results[i] = Result{}
			}
		}
	}
	return hits
}

// lookupGroup probes one shard's group of keys under one readWindow: if a
// writer invalidates the window, the whole group re-probes. A clean pass
// writes nothing the shard's other readers or its writer can see: the caller
// counts the group.
func (b *Batch) lookupGroup(sh *shard, group []uint32, results []Result) int {
	for w := (readWindow{sh: sh, stripe: b.stripe}); ; {
		w.open()
		hits := 0
		for _, i := range group {
			res := Result{}
			if _, slot, ok := sh.locate(&b.kw[i], b.h[i]); ok {
				res = Result{Value: sh.valueWord(slot).Load(), OK: true}
				hits++
			}
			results[i] = res
		}
		if w.done() {
			return hits
		}
	}
}
