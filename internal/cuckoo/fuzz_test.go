package cuckoo

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
)

// fuzzTableEntries keeps the fuzzed table tiny so random op streams reach
// the interesting regimes: displacement chains on insert, and a genuinely
// full table returning ErrTableFull.
const fuzzTableEntries = 64

// fuzzKeyUniverse is ~1.5x capacity, so sequences can both fill the table
// and keep colliding on a small key set.
const fuzzKeyUniverse = 96

// applyFuzzOps interprets data as a stream of 4-byte operations
// (kind, key-lo, key-hi, value) and applies each to a fresh table (SFH when
// sfh is set), failing on any divergence from two references: a plain map
// for what the table must answer, and — through tablePair — the per-entry
// implementation for the bytes, counters and free-list order it must leave
// behind after every single op.
func applyFuzzOps(t *testing.T, data []byte, sfh bool) {
	pair := newTablePair(t, Config{Entries: fuzzTableEntries, KeyLen: 16, SFH: sfh})
	tbl := pair.tbl
	model := map[uint16]uint64{}

	for off := 0; off+4 <= len(data); off += 4 {
		kind := data[off]
		mk := binary.LittleEndian.Uint16(data[off+1:off+3]) % fuzzKeyUniverse
		val := uint64(data[off+3])
		k := key16(uint64(mk))
		switch kind % 4 {
		case 0: // insert
			err := pair.insert(k, val)
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
			got := pair.delete(k)
			if _, exists := model[mk]; got != exists {
				t.Fatalf("op %d: Delete(key %d) = %v, model has it: %v", off/4, mk, got, exists)
			}
			delete(model, mk)
		case 2: // lookup
			v, ok := pair.lookup(k)
			want, exists := model[mk]
			if ok != exists || (ok && v != want) {
				t.Fatalf("op %d: Lookup(key %d) = (%d,%v), model says (%d,%v)", off/4, mk, v, ok, want, exists)
			}
		case 3: // update
			got := pair.update(k, val)
			if _, exists := model[mk]; got != exists {
				t.Fatalf("op %d: Update(key %d) = %v, model has it: %v", off/4, mk, got, exists)
			}
			if got {
				model[mk] = val
			}
		}
		if tbl.Size() != uint64(len(model)) {
			t.Fatalf("op %d: Size = %d, model has %d entries", off/4, tbl.Size(), len(model))
		}
	}

	// Closing sweep: every model entry must be retrievable, and Iterate
	// must visit exactly the model's pairs.
	for mk, want := range model {
		if v, ok := tbl.Lookup(key16(uint64(mk))); !ok || v != want {
			t.Fatalf("final sweep: Lookup(key %d) = (%d,%v), want (%d,true)", mk, v, ok, want)
		}
	}
	visited := map[uint16]uint64{}
	tbl.Iterate(func(key []byte, value uint64) bool {
		mk := uint16(binary.LittleEndian.Uint64(key))
		if _, dup := visited[mk]; dup {
			t.Fatalf("Iterate visited key %d twice", mk)
		}
		visited[mk] = value
		return true
	})
	if len(visited) != len(model) {
		t.Fatalf("Iterate visited %d entries, model has %d", len(visited), len(model))
	}
	for mk, v := range visited {
		if want, ok := model[mk]; !ok || v != want {
			t.Fatalf("Iterate produced (key %d, %d), model says (%d,%v)", mk, v, want, ok)
		}
	}
}

// fuzzSeeds builds corpus inputs covering the paths random bytes take a
// while to find: fill-to-ErrTableFull, churn (displacement chains), and
// insert/delete/update interleavings on a hot key set.
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
	var churn bytes.Buffer // fill, then alternate delete/insert to force moves
	for i := 0; i < fuzzTableEntries; i++ {
		churn.Write(op(0, uint16(i), byte(i)))
	}
	for i := 0; i < fuzzTableEntries; i++ {
		churn.Write(op(1, uint16(i*7)%fuzzKeyUniverse, 0))
		churn.Write(op(0, uint16(i*13)%fuzzKeyUniverse, byte(i)))
		churn.Write(op(3, uint16(i*3)%fuzzKeyUniverse, byte(i+1)))
	}
	return [][]byte{
		{},
		op(0, 1, 42),
		bytes.Repeat(op(0, 5, 9), 3), // duplicate inserts
		fill.Bytes(),
		churn.Bytes(),
	}
}

// FuzzCuckooOps cross-checks the simulated-memory cuckoo table against a
// plain map and the per-entry reference implementation under arbitrary
// insert/delete/lookup/update sequences, on cuckoo and SFH tables. The
// committed corpus under testdata/fuzz/FuzzCuckooOps holds the seeds that
// reach the displacement and SFH branches of the bucket scan.
// Run with: go test -fuzz=FuzzCuckooOps ./internal/cuckoo
func FuzzCuckooOps(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed, false)
		f.Add(seed, true)
	}
	f.Fuzz(func(t *testing.T, data []byte, sfh bool) {
		if len(data) > 1<<14 {
			t.Skip("cap op-stream length")
		}
		applyFuzzOps(t, data, sfh)
	})
}

// TestFuzzSeedCorpus runs the seed inputs through the fuzz body in plain
// `go test` runs, so CI exercises the displacement and full-table paths
// without a fuzzing engine.
func TestFuzzSeedCorpus(t *testing.T) {
	for i, seed := range fuzzSeeds() {
		for _, sfh := range []bool{false, true} {
			t.Run(fmt.Sprintf("%c/sfh=%v", 'a'+i, sfh), func(t *testing.T) {
				applyFuzzOps(t, seed, sfh)
			})
		}
	}
}
