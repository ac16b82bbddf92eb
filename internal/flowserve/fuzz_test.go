package flowserve

import (
	"bytes"
	"encoding/binary"
	"testing"

	"halo/internal/hashfn"
)

// The fuzzed table stays tiny so random op streams reach the interesting
// regimes — displacement chains, full shards — and it keeps several shards
// so shard routing itself is under test. Mirrors internal/cuckoo's harness.
const (
	fuzzShards       = 4
	fuzzTableEntries = 64
	fuzzKeyUniverse  = 96 // ~1.5x capacity: fills the table and keeps colliding
)

// applyFuzzOps runs a fuzz input against a fresh small sharded table.
func applyFuzzOps(t *testing.T, data []byte) {
	tbl, err := New(Config{Shards: fuzzShards, Entries: fuzzTableEntries, KeyLen: 20})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	applyOps(t, tbl, fuzzKeyUniverse, data, nil)
}

// applyOps interprets data as a stream of 4-byte operations
// (kind, key-lo, key-hi, value) over the 20-byte keys [0, universe), applied
// to tbl and to a plain map reference model, failing on any behavioural
// divergence. after, when non-nil, runs after every op with the model's
// size. Single goroutine: linearizable semantics are the spec here;
// concurrency is the stress test's job.
func applyOps(t *testing.T, tbl *Table, universe uint16, data []byte, after func(op, resident int)) {
	model := map[uint16]uint64{}
	var batch *Batch

	for off := 0; off+4 <= len(data); off += 4 {
		kind := data[off]
		mk := binary.LittleEndian.Uint16(data[off+1:off+3]) % universe
		val := uint64(data[off+3])
		k := key20(uint64(mk))
		switch kind % 7 {
		case 0: // insert
			err := tbl.Insert(k, val)
			_, exists := model[mk]
			switch {
			case exists:
				if err != ErrKeyExists {
					t.Fatalf("op %d: Insert(dup key %d) = %v, want ErrKeyExists", off/4, mk, err)
				}
			case err == nil:
				model[mk] = val
			case err != ErrTableFull:
				t.Fatalf("op %d: Insert(new key %d) = %v, want nil or ErrTableFull", off/4, mk, err)
			}
		case 1: // delete
			got := tbl.Delete(k)
			if _, exists := model[mk]; got != exists {
				t.Fatalf("op %d: Delete(key %d) = %v, model has it: %v", off/4, mk, got, exists)
			}
			delete(model, mk)
		case 2: // lookup
			v, ok := tbl.Lookup(k)
			want, exists := model[mk]
			if ok != exists || (ok && v != want) {
				t.Fatalf("op %d: Lookup(key %d) = (%d,%v), model says (%d,%v)", off/4, mk, v, ok, want, exists)
			}
		case 3: // update
			got := tbl.Update(k, val)
			if _, exists := model[mk]; got != exists {
				t.Fatalf("op %d: Update(key %d) = %v, model has it: %v", off/4, mk, got, exists)
			}
			if got {
				model[mk] = val
			}
		case 4: // batched lookup of a key window starting at mk
			if batch == nil {
				batch = tbl.NewPinnedReader()
			}
			const span = 8
			keys := make([][]byte, span)
			results := make([]Result, span)
			for j := 0; j < span; j++ {
				keys[j] = key20(uint64((mk + uint16(j)) % universe))
			}
			batch.LookupMany(keys, results)
			for j := 0; j < span; j++ {
				wk := (mk + uint16(j)) % universe
				want, exists := model[wk]
				if results[j].OK != exists || (results[j].OK && results[j].Value != want) {
					t.Fatalf("op %d: LookupMany(key %d) = (%d,%v), model says (%d,%v)",
						off/4, wk, results[j].Value, results[j].OK, want, exists)
				}
			}
		case 5: // scan a hash range: exactly the model's keys in it, once each
			lo, hi := fuzzRange(data[off+1], data[off+2])
			seen := map[uint16]uint64{}
			tbl.ScanRange(lo, hi, func(key []byte, value uint64) {
				sk := uint16(binary.LittleEndian.Uint64(key))
				if _, dup := seen[sk]; dup {
					t.Fatalf("op %d: ScanRange(%#x, %#x) emitted key %d twice", off/4, lo, hi, sk)
				}
				seen[sk] = value
			})
			want := modelInRange(model, lo, hi)
			if len(seen) != len(want) {
				t.Fatalf("op %d: ScanRange(%#x, %#x) emitted %d keys, model has %d in range", off/4, lo, hi, len(seen), len(want))
			}
			for sk, v := range want {
				if got, ok := seen[sk]; !ok || got != v {
					t.Fatalf("op %d: ScanRange(%#x, %#x) key %d = (%d,%v), model says %d", off/4, lo, hi, sk, got, ok, v)
				}
			}
		case 6: // purge a hash range: exactly the model's keys in it go
			lo, hi := fuzzRange(data[off+1], data[off+2])
			want := modelInRange(model, lo, hi)
			if got := tbl.PurgeRange(lo, hi); got != uint64(len(want)) {
				t.Fatalf("op %d: PurgeRange(%#x, %#x) = %d, model has %d in range", off/4, lo, hi, got, len(want))
			}
			for sk := range want {
				delete(model, sk)
			}
		}
		if tbl.Size() != uint64(len(model)) {
			t.Fatalf("op %d: Size = %d, model has %d entries", off/4, tbl.Size(), len(model))
		}
		if after != nil {
			after(off/4, len(model))
		}
	}

	// Closing sweep: every model entry must be retrievable.
	for mk, want := range model {
		if v, ok := tbl.Lookup(key20(uint64(mk))); !ok || v != want {
			t.Fatalf("final sweep: Lookup(key %d) = (%d,%v), want (%d,true)", mk, v, ok, want)
		}
	}
}

// fuzzRange derives a range op's hash range from its two key bytes: lo's
// top byte, and the range's width in 1/256ths of the hash space. A range
// reaching past the end is [lo, end), spelled hi == 0 as the API does.
func fuzzRange(b1, b2 byte) (lo, hi uint64) {
	lo = uint64(b1) << 56
	if hi = lo + (uint64(b2)+1)<<56; hi <= lo {
		hi = 0
	}
	return lo, hi
}

// modelInRange returns the model's entries whose key's primary hash falls
// in [lo, hi) (hi == 0: to the end).
func modelInRange(model map[uint16]uint64, lo, hi uint64) map[uint16]uint64 {
	in := map[uint16]uint64{}
	for mk, v := range model {
		if h := hashfn.Hash(hashfn.SeedPrimary, key20(uint64(mk))); h >= lo && (hi == 0 || h < hi) {
			in[mk] = v
		}
	}
	return in
}

// fuzzSeeds builds corpus inputs covering the paths random bytes take a
// while to find: fill-to-full, churn (displacement chains), batched probes
// over live/dead mixes, a refill into the slots a purge freed, and range
// scans and purges.
func fuzzSeeds() [][]byte {
	op := func(kind byte, key uint16, val byte) []byte {
		b := make([]byte, 4)
		b[0] = kind
		binary.LittleEndian.PutUint16(b[1:3], key)
		b[3] = val
		return b
	}
	var fill bytes.Buffer // insert past capacity, then probe every key
	for i := 0; i < fuzzKeyUniverse; i++ {
		fill.Write(op(0, uint16(i), byte(i)))
	}
	for i := 0; i < fuzzKeyUniverse; i++ {
		fill.Write(op(2, uint16(i), 0))
	}
	var churn bytes.Buffer // fill, then alternate delete/insert/update/batch
	for i := 0; i < fuzzTableEntries; i++ {
		churn.Write(op(0, uint16(i), byte(i)))
	}
	for i := 0; i < fuzzTableEntries; i++ {
		churn.Write(op(1, uint16(i*7)%fuzzKeyUniverse, 0))
		churn.Write(op(0, uint16(i*13)%fuzzKeyUniverse, byte(i)))
		churn.Write(op(3, uint16(i*3)%fuzzKeyUniverse, byte(i+1)))
		churn.Write(op(4, uint16(i*5)%fuzzKeyUniverse, 0))
	}
	var refill bytes.Buffer // fill past capacity, purge 5/8..end, refill
	for i := 0; i < fuzzKeyUniverse; i++ {
		refill.Write(op(0, uint16(i), byte(i)))
	}
	refill.Write(op(6, 0x5fa0, 0))
	for i := 0; i < fuzzKeyUniverse; i++ {
		refill.Write(op(0, uint16(i), byte(i+1))) // the purged keys take recycled slots
		refill.Write(op(4, uint16(i*3)%fuzzKeyUniverse, 0))
	}
	for i := 0; i < fuzzKeyUniverse; i++ {
		refill.Write(op(2, uint16(i), 0))
	}
	// Fill, then scan and purge. Key 0xff00 is the whole hash space; 0x3f40
	// is [1/4, 1/2); 0x5fa0 runs from 5/8 to the end.
	var ranges bytes.Buffer
	for i := 0; i < fuzzTableEntries; i++ {
		ranges.Write(op(0, uint16(i), byte(i)))
	}
	for _, rg := range []uint16{0xff00, 0x3f40, 0x5fa0} {
		ranges.Write(op(5, rg, 0))
	}
	ranges.Write(op(6, 0x3f40, 0))
	ranges.Write(op(5, 0xff00, 0))
	ranges.Write(op(6, 0x5fa0, 0))
	ranges.Write(op(5, 0xff00, 0))
	for i := 0; i < fuzzKeyUniverse; i++ {
		ranges.Write(op(2, uint16(i), 0))
	}
	ranges.Write(op(6, 0xff00, 0))
	return [][]byte{
		{},
		op(0, 1, 42),
		bytes.Repeat(op(0, 5, 9), 3), // duplicate inserts
		fill.Bytes(),
		churn.Bytes(),
		refill.Bytes(),
		ranges.Bytes(),
	}
}

// FuzzFlowServeOps cross-checks the sharded native-memory table against a
// plain map under arbitrary op sequences.
// Run with: go test -fuzz=FuzzFlowServeOps ./internal/flowserve
func FuzzFlowServeOps(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<14 {
			t.Skip("cap op-stream length")
		}
		applyFuzzOps(t, data)
	})
}

// TestFuzzSeedCorpus runs the seed inputs through the fuzz body in plain
// `go test` runs, so CI exercises displacement and full-table paths without
// a fuzzing engine.
func TestFuzzSeedCorpus(t *testing.T) {
	for i, seed := range fuzzSeeds() {
		seed := seed
		t.Run(string(rune('a'+i)), func(t *testing.T) {
			applyFuzzOps(t, seed)
		})
	}
}
