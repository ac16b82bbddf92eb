package flowserve

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// The fuzzed table stays tiny so random op streams reach the interesting
// regimes — displacement chains, full shards — and it keeps several shards
// so shard routing itself is under test. Mirrors internal/cuckoo's harness.
const (
	fuzzShards       = 4
	fuzzTableEntries = 64
	fuzzKeyUniverse  = 96 // ~1.5x capacity: fills the table and keeps colliding
)

// fuzzMaxCapacity bounds fuzz-driven Grow so a hostile op stream cannot
// balloon allocations; it still allows several doublings from the seed size.
const fuzzMaxCapacity = 1 << 12

// applyFuzzOps interprets data as a stream of 4-byte operations
// (kind, key-lo, key-hi, value) applied to a sharded table and to a plain
// map reference model, failing on any behavioural divergence. Grow and
// ResizeStep are ops in the stream, so the fuzzer interleaves incremental
// migration with every other operation at arbitrary points. Single
// goroutine: linearizable semantics are the spec here; concurrency is the
// stress test's job.
func applyFuzzOps(t *testing.T, data []byte) {
	tbl, err := New(Config{Shards: fuzzShards, Entries: fuzzTableEntries, KeyLen: 20})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	model := map[uint16]uint64{}
	var batch *Batch

	for off := 0; off+4 <= len(data); off += 4 {
		kind := data[off]
		mk := binary.LittleEndian.Uint16(data[off+1:off+3]) % fuzzKeyUniverse
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
				batch = tbl.NewBatch()
			}
			const span = 8
			keys := make([][]byte, span)
			results := make([]Result, span)
			for j := 0; j < span; j++ {
				keys[j] = key20(uint64((mk + uint16(j)) % fuzzKeyUniverse))
			}
			batch.LookupMany(keys, results)
			for j := 0; j < span; j++ {
				wk := (mk + uint16(j)) % fuzzKeyUniverse
				want, exists := model[wk]
				if results[j].OK != exists || (results[j].OK && results[j].Value != want) {
					t.Fatalf("op %d: LookupMany(key %d) = (%d,%v), model says (%d,%v)",
						off/4, wk, results[j].Value, results[j].OK, want, exists)
				}
			}
		case 5: // grow by an odd increment (exercises irregular region sizes)
			if c := tbl.Capacity(); c < fuzzMaxCapacity {
				if err := tbl.Grow(c + 1 + uint64(val)); err != nil {
					t.Fatalf("op %d: Grow(%d) = %v", off/4, c+1+uint64(val), err)
				}
			}
		case 6: // tick migration forward a few buckets
			tbl.ResizeStep(1 + int(val%4))
		}
		if tbl.Size() != uint64(len(model)) {
			t.Fatalf("op %d: Size = %d, model has %d entries", off/4, tbl.Size(), len(model))
		}
	}

	// Closing sweep: every model entry must be retrievable.
	for mk, want := range model {
		if v, ok := tbl.Lookup(key20(uint64(mk))); !ok || v != want {
			t.Fatalf("final sweep: Lookup(key %d) = (%d,%v), want (%d,true)", mk, v, ok, want)
		}
	}
}

// fuzzSeeds builds corpus inputs covering the paths random bytes take a
// while to find: fill-to-full, churn (displacement chains), batched probes
// over live/dead mixes.
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
	var grow bytes.Buffer // fill, grow, interleave migration ticks with churn
	for i := 0; i < fuzzTableEntries; i++ {
		grow.Write(op(0, uint16(i), byte(i)))
	}
	grow.Write(op(5, 0, 200)) // capacity + 201: irregular region size
	for i := 0; i < fuzzTableEntries; i++ {
		grow.Write(op(6, 0, byte(i)))                            // ResizeStep
		grow.Write(op(2, uint16(i), 0))                          // lookup mid-migration
		grow.Write(op(1, uint16(i*5)%fuzzKeyUniverse, 0))        // delete
		grow.Write(op(0, uint16(i*11)%fuzzKeyUniverse, byte(i))) // insert
		grow.Write(op(4, uint16(i*3)%fuzzKeyUniverse, 0))        // batch
		if i%16 == 0 {
			grow.Write(op(5, 0, byte(i))) // stack further grows
		}
	}
	for i := 0; i < fuzzKeyUniverse; i++ {
		grow.Write(op(2, uint16(i), 0))
	}
	return [][]byte{
		{},
		op(0, 1, 42),
		bytes.Repeat(op(0, 5, 9), 3), // duplicate inserts
		fill.Bytes(),
		churn.Bytes(),
		grow.Bytes(),
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
