package flowserve

import "testing"

// TestTableSteadyStateAllocs is the table's allocation gate: once a batch's
// scratch is sized and the pool holds one, every read and every write of a
// resident key allocates nothing. It pins the read window (and the keys'
// word scratch) to the stack: a readWindow that escaped would cost an
// allocation per lookup.
func TestTableSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on synchronization")
	}
	tbl := mustNew(t, Config{Shards: 4, Entries: 1024, KeyLen: 20})
	keys := make([][]byte, 16)
	for i := range keys {
		keys[i] = key20(uint64(i))
		if err := tbl.Insert(keys[i], uint64(i)+1); err != nil {
			t.Fatal(err)
		}
	}
	results := make([]Result, len(keys))
	batch := tbl.NewBatch()
	batch.LookupMany(keys, results) // size the pinned scratch
	k := keys[3]
	for _, c := range []struct {
		name string
		op   func()
	}{
		{"Table.Lookup", func() {
			if _, ok := tbl.Lookup(k); !ok {
				t.Fatal("miss on a resident key")
			}
		}},
		{"Table.LookupMany", func() {
			if tbl.LookupMany(keys, results) != len(keys) {
				t.Fatal("miss on a resident key")
			}
		}},
		{"Batch.LookupMany", func() {
			if batch.LookupMany(keys, results) != len(keys) {
				t.Fatal("miss on a resident key")
			}
		}},
		{"Update", func() {
			if !tbl.Update(k, 7) {
				t.Fatal("Update of a resident key failed")
			}
		}},
		{"Delete+Insert", func() {
			if !tbl.Delete(k) {
				t.Fatal("Delete of a resident key failed")
			}
			if err := tbl.Insert(k, 4); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		if allocs := testing.AllocsPerRun(1000, c.op); allocs != 0 {
			t.Errorf("%s: %.2f allocs/op, want 0", c.name, allocs)
		}
	}
}
