package tcam

import (
	"encoding/binary"
	"testing"

	"halo/internal/cache"
	"halo/internal/cpu"
	"halo/internal/mem"
	"halo/internal/noc"
	"halo/internal/sim"
)

func TestExactMatch(t *testing.T) {
	d := New(DefaultConfig(ClassicTCAM, 16, 4))
	if err := d.InsertExact([]byte{1, 2, 3, 4}, 99); err != nil {
		t.Fatal(err)
	}
	v, ok := d.Lookup([]byte{1, 2, 3, 4})
	if !ok || v != 99 {
		t.Fatalf("lookup = (%d,%v)", v, ok)
	}
	if _, ok := d.Lookup([]byte{1, 2, 3, 5}); ok {
		t.Fatal("near-miss matched")
	}
}

func TestWildcardMatch(t *testing.T) {
	d := New(DefaultConfig(ClassicTCAM, 16, 4))
	// Match 10.0.x.x
	if err := d.Insert([]byte{10, 0, 0, 0}, []byte{0xFF, 0xFF, 0, 0}, 7); err != nil {
		t.Fatal(err)
	}
	if v, ok := d.Lookup([]byte{10, 0, 123, 45}); !ok || v != 7 {
		t.Fatalf("wildcard lookup = (%d,%v)", v, ok)
	}
	if _, ok := d.Lookup([]byte{10, 1, 0, 0}); ok {
		t.Fatal("out-of-prefix key matched")
	}
}

func TestPriorityIsIndexOrder(t *testing.T) {
	d := New(DefaultConfig(ClassicTCAM, 16, 2))
	d.Insert([]byte{1, 0}, []byte{0xFF, 0}, 1)    // 1.x → 1
	d.Insert([]byte{1, 2}, []byte{0xFF, 0xFF}, 2) // 1.2 → 2 (shadowed)
	if v, _ := d.Lookup([]byte{1, 2}); v != 1 {
		t.Fatalf("priority = %d, want lowest index to win", v)
	}
}

func TestValueOutsideCareCanonicalised(t *testing.T) {
	d := New(DefaultConfig(ClassicTCAM, 4, 2))
	// Garbage bits outside the care mask must not affect matching.
	d.Insert([]byte{0xAB, 0xFF}, []byte{0xFF, 0x00}, 5)
	if v, ok := d.Lookup([]byte{0xAB, 0x12}); !ok || v != 5 {
		t.Fatalf("canonicalisation broken: (%d,%v)", v, ok)
	}
}

func TestCapacityAndErrors(t *testing.T) {
	d := New(DefaultConfig(ClassicTCAM, 2, 2))
	if err := d.InsertExact([]byte{1}, 0); err != ErrKeyLen {
		t.Fatalf("short key err = %v", err)
	}
	d.InsertExact([]byte{1, 1}, 1)
	d.InsertExact([]byte{2, 2}, 2)
	if err := d.InsertExact([]byte{3, 3}, 3); err != ErrFull {
		t.Fatalf("full err = %v", err)
	}
	if d.Len() != 2 {
		t.Fatalf("len = %d", d.Len())
	}
}

func TestDelete(t *testing.T) {
	d := New(DefaultConfig(ClassicTCAM, 4, 2))
	care := []byte{0xFF, 0xFF}
	d.Insert([]byte{1, 1}, care, 1)
	d.Insert([]byte{2, 2}, care, 2)
	if !d.Delete([]byte{1, 1}, care) {
		t.Fatal("delete failed")
	}
	if _, ok := d.Lookup([]byte{1, 1}); ok {
		t.Fatal("deleted entry matched")
	}
	if v, _ := d.Lookup([]byte{2, 2}); v != 2 {
		t.Fatal("surviving entry lost")
	}
	if d.Delete([]byte{9, 9}, care) {
		t.Fatal("delete of absent entry succeeded")
	}
}

func TestTimedLookupLatencies(t *testing.T) {
	h := cache.New(cache.DefaultConfig(), noc.NewRing(noc.DefaultRingConfig()),
		mem.NewDRAM(mem.DefaultDRAMConfig()))
	th := cpu.NewThread(h, 0)

	classic := New(DefaultConfig(ClassicTCAM, 16, 4))
	classic.InsertExact([]byte{1, 2, 3, 4}, 1)
	start := th.Now
	classic.LookupTimed(th, []byte{1, 2, 3, 4})
	classicCost := th.Now - start

	sram := New(DefaultConfig(SRAMTCAM, 16, 4))
	sram.InsertExact([]byte{1, 2, 3, 4}, 1)
	start = th.Now
	sram.LookupTimed(th, []byte{1, 2, 3, 4})
	sramCost := th.Now - start

	if classicCost >= sramCost {
		t.Fatalf("classic (%d) should be faster than SRAM-TCAM (%d)", classicCost, sramCost)
	}
	// A few search cycles plus the fixed uncore command round trip.
	if classicCost > 40 {
		t.Fatalf("TCAM lookup cost %d cycles; want ~30", classicCost)
	}
}

func TestStats(t *testing.T) {
	d := New(DefaultConfig(ClassicTCAM, 4, 2))
	d.InsertExact([]byte{1, 1}, 1)
	d.Lookup([]byte{1, 1})
	d.Lookup([]byte{2, 2})
	if d.Queries() != 2 || d.HitRate() != 0.5 {
		t.Fatalf("queries=%d hitRate=%v", d.Queries(), d.HitRate())
	}
}

func TestTimedUpdatesChargeShiftCost(t *testing.T) {
	h := cache.New(cache.DefaultConfig(), noc.NewRing(noc.DefaultRingConfig()),
		mem.NewDRAM(mem.DefaultDRAMConfig()))
	th := cpu.NewThread(h, 0)
	d := New(DefaultConfig(ClassicTCAM, 1000, 2))
	care := []byte{0xFF, 0xFF}
	for i := 0; i < 500; i++ {
		d.InsertExact([]byte{byte(i), byte(i >> 8)}, uint64(i))
	}
	// Insert at the head: every existing entry shifts.
	start := th.Now
	if err := d.InsertTimed(th, 0, []byte{0xAA, 0xBB}, care, 9); err != nil {
		t.Fatal(err)
	}
	headCost := th.Now - start
	// Insert at the tail: no shifting.
	start = th.Now
	if err := d.InsertTimed(th, d.Len(), []byte{0xAA, 0xCC}, care, 10); err != nil {
		t.Fatal(err)
	}
	tailCost := th.Now - start
	if headCost < tailCost+500 {
		t.Fatalf("head insert (%d) should dwarf tail insert (%d)", headCost, tailCost)
	}
	// Priority order holds: the head insert wins over the old entries.
	if v, ok := d.Lookup([]byte{0xAA, 0xBB}); !ok || v != 9 {
		t.Fatalf("head entry lookup = (%d,%v)", v, ok)
	}
	// Timed delete removes and charges.
	start = th.Now
	if !d.DeleteTimed(th, []byte{0xAA, 0xBB}, care) {
		t.Fatal("timed delete failed")
	}
	if th.Now == start {
		t.Fatal("timed delete charged nothing")
	}
	if d.DeleteTimed(th, []byte{0x01, 0x99}, care) {
		t.Fatal("timed delete of absent entry succeeded")
	}
	// Full device rejects.
	full := New(DefaultConfig(ClassicTCAM, 1, 2))
	full.InsertExact([]byte{1, 1}, 1)
	if err := full.InsertTimed(th, 0, []byte{2, 2}, care, 2); err != ErrFull {
		t.Fatalf("full err = %v", err)
	}
}

// Regression: a value or care of the wrong length names no entry. A 2-byte
// pair used to delete a 4-byte entry whose first two bytes matched, and a
// 5-byte value indexed past the entry's end.
func TestDeleteRejectsWrongLength(t *testing.T) {
	h := cache.New(cache.DefaultConfig(), noc.NewRing(noc.DefaultRingConfig()),
		mem.NewDRAM(mem.DefaultDRAMConfig()))
	th := cpu.NewThread(h, 0)
	for _, c := range []struct {
		name        string
		value, care []byte
	}{
		{"short prefix", []byte{1, 2}, []byte{0xff, 0xff}},
		{"long value", []byte{1, 2, 3, 4, 5}, []byte{0xff, 0xff, 0xff, 0xff}},
		{"long care", []byte{1, 2, 3, 4}, []byte{0xff, 0xff, 0xff, 0xff, 0xff}},
	} {
		d := New(DefaultConfig(ClassicTCAM, 4, 4))
		d.InsertExact([]byte{1, 2, 3, 4}, 7)
		if d.Delete(c.value, c.care) {
			t.Errorf("%s: Delete removed an entry", c.name)
		}
		start := th.Now
		if d.DeleteTimed(th, c.value, c.care) {
			t.Errorf("%s: DeleteTimed removed an entry", c.name)
		}
		if th.Now != start {
			t.Errorf("%s: DeleteTimed charged %d cycles for no entry", c.name, th.Now-start)
		}
		if v, ok := d.Lookup([]byte{1, 2, 3, 4}); !ok || v != 7 {
			t.Errorf("%s: entry lost: (%d,%v)", c.name, v, ok)
		}
	}
}

// refEntry and refLookup are the device's semantics as a linear scan: the
// lowest-indexed entry whose cared-for bits equal the key's wins.
type refEntry struct {
	value, care []byte
	data        uint64
}

func refLookup(entries []refEntry, key []byte) (uint64, bool) {
next:
	for _, e := range entries {
		for j := range key {
			if key[j]&e.care[j] != e.value[j]&e.care[j] {
				continue next
			}
		}
		return e.data, true
	}
	return 0, false
}

func refDelete(entries []refEntry, value, care []byte) ([]refEntry, int) {
	for i, e := range entries {
		same := true
		for j := range value {
			if e.value[j]&e.care[j] != value[j]&care[j] || e.care[j] != care[j] {
				same = false
			}
		}
		if same {
			return append(entries[:i], entries[i+1:]...), i
		}
	}
	return entries, -1
}

// The index answers every lookup as a scan would, through appends, timed
// inserts at random priorities, deletes and interleaved lookups, over
// ternary and exact entries drawn small enough to collide and shadow.
func TestLookupMatchesLinearScan(t *testing.T) {
	h := cache.New(cache.DefaultConfig(), noc.NewRing(noc.DefaultRingConfig()),
		mem.NewDRAM(mem.DefaultDRAMConfig()))
	th := cpu.NewThread(h, 0)
	cares := [][]byte{
		{0xff, 0xff, 0xff, 0xff}, {0xff, 0xff, 0, 0}, {0xff, 0, 0, 0},
		{0, 0, 0, 0}, {0xf0, 0xff, 0x0f, 0}, {0xff, 0xff, 0xff, 0xfe},
	}
	for seed := uint64(1); seed <= 4; seed++ {
		rng := sim.NewRand(seed)
		byteOf := func() byte { return []byte{0, 1, 2, 0xab}[rng.Intn(4)] }
		draw := func() []byte { return []byte{byteOf(), byteOf(), byteOf(), byteOf()} }
		d := New(DefaultConfig(ClassicTCAM, 400, 4))
		var ref []refEntry
		var hits, queries uint64
		for op := 0; op < 4000; op++ {
			value, care := draw(), cares[rng.Intn(len(cares))]
			if rng.Intn(5) == 0 {
				care = cares[0]
			}
			switch k := rng.Intn(10); {
			case k < 2 && len(ref) < 400:
				if err := d.Insert(value, care, uint64(op)); err != nil {
					t.Fatal(err)
				}
				ref = append(ref, refEntry{value, care, uint64(op)})
			case k < 4 && len(ref) < 400:
				pos := rng.Intn(len(ref) + 1)
				if err := d.InsertTimed(th, pos, value, care, uint64(op)); err != nil {
					t.Fatal(err)
				}
				ref = append(ref[:pos], append([]refEntry{{value, care, uint64(op)}}, ref[pos:]...)...)
			case k < 6:
				if len(ref) > 0 && rng.Intn(2) == 0 { // delete one that exists
					e := ref[rng.Intn(len(ref))]
					value, care = e.value, e.care
				}
				var i int
				ref, i = refDelete(ref, value, care)
				if got := d.DeleteTimed(th, value, care); got != (i >= 0) {
					t.Fatalf("seed %d op %d: DeleteTimed = %v, reference removed index %d", seed, op, got, i)
				}
			case k < 7:
				var i int
				ref, i = refDelete(ref, value, care)
				if got := d.Delete(value, care); got != (i >= 0) {
					t.Fatalf("seed %d op %d: Delete = %v, reference removed index %d", seed, op, got, i)
				}
			default:
				key := draw()
				want, wantOK := refLookup(ref, key)
				got, ok := d.Lookup(key)
				if got != want || ok != wantOK {
					t.Fatalf("seed %d op %d: Lookup(%v) = (%d,%v), scan says (%d,%v)", seed, op, key, got, ok, want, wantOK)
				}
				queries++
				if ok {
					hits++
				}
			}
			if d.Len() != len(ref) {
				t.Fatalf("seed %d op %d: Len %d, reference %d", seed, op, d.Len(), len(ref))
			}
		}
		if d.Queries() != queries || d.HitRate() != float64(hits)/float64(queries) {
			t.Fatalf("seed %d: queries %d hit rate %v, reference %d and %v",
				seed, d.Queries(), d.HitRate(), queries, float64(hits)/float64(queries))
		}
	}
}

// BenchmarkLookup times one search of a filled device: fig9's exact-match
// tables, and fig11's shape of 20 masks with 1,024 entries each.
func BenchmarkLookup(b *testing.B) {
	key := func(i int) []byte {
		k := make([]byte, 16)
		binary.LittleEndian.PutUint64(k, uint64(i))
		binary.LittleEndian.PutUint64(k[8:], uint64(i)^0xabcdef)
		return k
	}
	b.Run("exact/entries=131072", func(b *testing.B) {
		d := New(DefaultConfig(ClassicTCAM, 1<<17, 16))
		for i := 0; i < 1<<17; i++ {
			d.InsertExact(key(i), uint64(i))
		}
		keys := make([][]byte, 1024)
		for i := range keys {
			keys[i] = key(i * 127)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.Lookup(keys[i%len(keys)])
		}
	})
	b.Run("masks=20/entries=20480", func(b *testing.B) {
		d := New(DefaultConfig(ClassicTCAM, 20*1024, 16))
		for m := 0; m < 20; m++ {
			care := make([]byte, 16)
			for j := range care[:m/2+8] {
				care[j] = 0xff
			}
			for i := 0; i < 1024; i++ {
				d.Insert(key(m<<10|i), care, uint64(m<<10|i))
			}
		}
		keys := make([][]byte, 1024)
		for i := range keys {
			keys[i] = key(i * 19)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.Lookup(keys[i%len(keys)])
		}
	})
}
