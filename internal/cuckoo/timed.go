package cuckoo

import (
	"halo/internal/cpu"
	"halo/internal/hashfn"
)

// This file contains the *timed* software lookup and update paths: the same
// algorithms as the functional ones, but executed against a cpu.Thread so
// that every load, store and arithmetic instruction the compiled DPDK-style
// code would retire is charged to the simulated core. The per-category
// instruction budget is calibrated against paper Table 1 (≈210 instructions
// per lookup: 36.2% loads, 11.8% stores, 21.0% arithmetic, 30.9% other) and
// validated by tests and the table1 experiment.

// maxLookupRetries bounds the optimistic-lock retry loop: after this many
// re-probes under a still-moving version counter the lookup gives up.
const maxLookupRetries = 3

// LookupOptions controls the timed lookup path.
type LookupOptions struct {
	// OptimisticLock enables the DPDK-style version-counter protocol
	// around the probe (read counter, probe, re-read, retry on change).
	// The paper measures this at ~13.1% of lookup time (§3.4).
	//
	// Give-up semantics: unlike rte_hash, which spins until the counter
	// settles, the simulated loop re-probes at most maxLookupRetries times
	// and then returns the final probe's result even though it may be torn
	// (a bounded tail beats an unbounded spin in a cycle-accurate model).
	// Every re-probe increments TableStats.Retries and every give-up
	// increments TableStats.RetryExhausted — surfaced in the stats snapshot
	// as cuckoo.lookup.retries and cuckoo.lookup.retry_exhausted — so an
	// exhausted retry loop is never silent.
	OptimisticLock bool
	// Prefetch issues software prefetches for both candidate buckets right
	// after hashing, as rte_hash's bulk lookup does.
	Prefetch bool
}

// DefaultLookupOptions matches the optimized DPDK baseline of §5.1.
func DefaultLookupOptions() LookupOptions {
	return LookupOptions{OptimisticLock: true, Prefetch: true}
}

// TimedLookup performs a software flow-rule lookup, charging th for the work
// and returning the value. The functional result always matches Lookup, and
// so does the stats accounting: a mismatched key length is a counted miss on
// both paths (here it additionally charges the prologue and the early
// return, since the compiled code would retire those instructions too).
func (t *Table) TimedLookup(th *cpu.Thread, key []byte, opts LookupOptions) (value uint64, ok bool) {
	t.stats.Lookups++
	start := th.Now

	// Function prologue and call-chain overhead. The DPDK lookup path runs
	// through three call layers (rte_hash_lookup → lookup_with_hash →
	// compare); the constants here reproduce the retired-instruction
	// profile Intel VTune reports for it (paper Table 1: ~210 instructions,
	// 36.2% loads / 11.8% stores / 21.0% arithmetic / 30.9% other).
	th.Other(26)
	th.LocalStore(15)
	th.LocalLoad(20)

	if len(key) != t.keyLen {
		// Length check + immediate unwind of the call chain.
		th.ALU(2)
		th.LocalLoad(4)
		th.Other(6)
		th.Record("lat.lookup.software", th.Now-start)
		return 0, false
	}

	// Load table handle fields (bucket base, counts, seeds — hot in L1).
	th.LocalLoad(5)

	// Hash the key: one 8-byte chunk per iteration, ~6 ALU each, plus
	// finalisation.
	words := (t.keyLen + 7) / 8
	th.LocalLoad(words) // key bytes: just-parsed header, core-local
	th.ALU(6*words + 8)

	h, sig, b1, b2 := t.Hashes(key)

	// Bucket index arithmetic: mask, signature derivation, alt-bucket calc.
	th.ALU(8)
	_ = h

	var verBefore uint32
	for attempt := 0; ; attempt++ {
		if opts.OptimisticLock {
			// Read the table change counter (shared line; contended under
			// writes) and keep it for the post-probe check.
			th.Load(t.VersionAddr())
			th.ALU(1)
			verBefore = t.Version()
		}
		if opts.Prefetch {
			th.Prefetch(t.BucketAddr(b1))
			if !t.IsSFH() {
				th.Prefetch(t.BucketAddr(b2))
			}
		}

		value, ok = t.timedProbe(th, key, sig, b1, b2)
		if t.probeHook != nil {
			t.probeHook()
		}

		if !opts.OptimisticLock {
			break
		}
		// Re-read the counter; retry the probe if a writer interleaved.
		th.Load(t.VersionAddr())
		th.ALU(2)
		th.Other(1)
		if t.Version() == verBefore {
			break
		}
		if attempt >= maxLookupRetries {
			// Give up and return the last probe's (possibly torn) result;
			// see LookupOptions.OptimisticLock.
			t.stats.RetryExhausted++
			break
		}
		t.stats.Retries++
	}

	// Epilogue: restore spills, unwind the call chain, return.
	th.LocalLoad(36)
	th.LocalStore(4)
	th.Other(28)
	if ok {
		t.stats.Hits++
	}
	th.Record("lat.lookup.software", th.Now-start)
	return value, ok
}

// timedProbe scans both candidate buckets, charging the thread.
func (t *Table) timedProbe(th *cpu.Thread, key []byte, sig uint16, b1, b2 uint64) (uint64, bool) {
	words := (t.keyLen + 7) / 8
	buckets := [2]uint64{b1, b2}
	n := 2
	if t.IsSFH() {
		n = 1
	}
	for bi := 0; bi < n; bi++ {
		b := buckets[bi]
		// Load the bucket line (first entry is the demand load; the other
		// seven 8-byte entries come from the same line).
		th.Load(t.BucketAddr(b))
		th.LocalLoad(EntriesPerBucket - 1)
		// Compare all eight signatures (vectorised in DPDK, but the
		// comparison µops still retire) + branch.
		th.ALU(EntriesPerBucket)
		th.Other(2)

		line := t.bucket(b, false)
		for e := 0; e < EntriesPerBucket; e++ {
			if entrySig(line, e) != sig {
				continue
			}
			idx := entryIdx(line, e)
			// Signature hit: fetch the key-value pair and compare keys.
			th.Load(t.KVAddr(idx))
			th.LocalLoad(words - 1 + 1) // remaining key words + value word
			th.ALU(2*words + 2)
			th.Other(2)
			if t.keyEqual(idx, key) {
				return t.readValue(idx), true
			}
		}
		// Loop overhead between buckets.
		th.Other(3)
		th.ALU(2)
	}
	return 0, false
}

// TimedInsert performs a software insert, charging th. It models the
// write-side locking cost (counter bumps around every bucket modification)
// on top of the displacement walk.
func (t *Table) TimedInsert(th *cpu.Thread, key []byte, value uint64) error {
	if len(key) != t.keyLen {
		return ErrKeyLen
	}
	start := th.Now
	defer func() { th.Record("lat.insert.software", th.Now-start) }()
	th.Other(6)
	th.LocalStore(8)
	th.LocalLoad(6)

	words := (t.keyLen + 7) / 8
	th.LocalLoad(words)
	th.ALU(6*words + 16)

	_, sig, b1, b2 := t.Hashes(key)

	// Probe for duplicates (mirrors the lookup probe cost).
	if _, exists := t.timedProbe(th, key, sig, b1, b2); exists {
		th.Other(4)
		return ErrKeyExists
	}
	if len(t.free) == 0 {
		return ErrTableFull
	}

	// Try to place directly; each attempted bucket is already hot from the
	// probe, but the stores to bucket + KV lines are real.
	place := func(b uint64) bool {
		e := firstFree(t.bucket(b, false))
		if e < 0 {
			return false
		}
		// Write key+value (slot line) then publish the entry.
		th.Store(t.KVAddr(t.free[len(t.free)-1]))
		th.LocalStore(words)
		th.Store(t.entryAddr(b, e))
		th.ALU(4)
		t.place(b, e, sig, key, value)
		return true
	}
	if place(b1) {
		th.Other(4)
		t.stats.Inserts++
		return nil
	}
	if !t.IsSFH() && place(b2) {
		th.Other(4)
		t.stats.Inserts++
		return nil
	}
	if t.IsSFH() {
		return ErrTableFull
	}

	// Displacement path: each move is two bucket stores plus two counter
	// bumps (the write-side of the optimistic lock).
	path := t.disp.Path(b1, b2, t.bucketCount, t.sigs)
	if path == nil {
		return ErrTableFull
	}
	// Charge each move: read the entry, bump the counter (write begins),
	// store to the alternative bucket, clear the source entry, bump the
	// counter again (write visible).
	for i := len(path) - 1; i >= 0; i-- {
		n := path[i]
		th.Load(t.BucketAddr(n.Bucket))
		th.ALU(8)
		th.Store(t.VersionAddr())
		alt := hashfn.AltBucket(n.Bucket, entrySig(t.bucket(n.Bucket, false), n.Entry), t.bucketCount)
		th.Store(t.BucketAddr(alt))
		th.Store(t.BucketAddr(n.Bucket))
		th.Store(t.VersionAddr())
		th.Other(3)
	}
	t.applyCuckooPath(path)
	if place(b1) || place(b2) {
		th.Other(4)
		t.stats.Inserts++
		return nil
	}
	return ErrTableFull
}

// TimedDelete removes a key, charging th for the probe, the counter bumps
// and the entry-clearing store.
func (t *Table) TimedDelete(th *cpu.Thread, key []byte) bool {
	if len(key) != t.keyLen {
		return false
	}
	start := th.Now
	defer func() { th.Record("lat.delete.software", th.Now-start) }()
	th.Other(6)
	th.LocalStore(6)
	th.LocalLoad(4)

	words := (t.keyLen + 7) / 8
	th.LocalLoad(words)
	th.ALU(6*words + 10)

	_, sig, b1, b2 := t.Hashes(key)
	if _, found := t.timedProbe(th, key, sig, b1, b2); !found {
		th.Other(4)
		return false
	}
	// Bump the change counter, clear the entry, bump again.
	th.Store(t.VersionAddr())
	th.Store(t.BucketAddr(b1)) // the entry store (bucket already identified)
	th.Store(t.VersionAddr())
	th.ALU(4)
	th.Other(4)
	return t.Delete(key)
}
