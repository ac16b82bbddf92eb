package cuckoo

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"halo/internal/mem"
	"halo/internal/sim"
)

// fillCase is one Fill workload: a table, a prefix of churn applied before
// the fill, and a key function over a universe small enough to repeat keys.
type fillCase struct {
	cfg      Config
	pre      int    // Insert/Delete churn steps before the fill
	n        uint64 // keys asked for
	universe uint64 // key i is drawn from [0, universe); 0 means key i is i
	seed     uint64
}

// fillKey derives key i of c: distinct keys when universe is 0, otherwise a
// seeded draw, so keys repeat within a group and across groups.
func (c fillCase) fillKey(i uint64, k []byte) {
	x := i
	if c.universe > 0 {
		x = sim.NewRand(c.seed^i*0x9e3779b97f4a7c15).Uint64() % c.universe
	}
	var b [16]byte
	binary.LittleEndian.PutUint32(b[:], uint32(x))
	binary.LittleEndian.PutUint64(b[4:], c.seed)
	binary.LittleEndian.PutUint32(b[12:], uint32(x*2654435761))
	clear(k)
	copy(k, b[:])
}

// fillTable builds c's table at a fixed arena base and applies its churn
// prefix, so two builds are byte-for-byte the same before the fill.
func fillTable(t *testing.T, c fillCase) *Table {
	t.Helper()
	tbl, err := Create(mem.NewMemory(), mem.NewAllocator(0x1000, 1<<30), c.cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRand(c.seed)
	k := make([]byte, c.cfg.KeyLen)
	for i := 0; i < c.pre; i++ {
		c.fillKey(uint64(rng.Intn(int(c.cfg.Entries))), k)
		if rng.Intn(3) == 0 {
			tbl.Delete(k)
		} else {
			_ = tbl.Insert(k, uint64(i))
		}
	}
	return tbl
}

// TestFillMatchesSequentialInsert: a staged Fill leaves exactly what
// Insert-ing the same keys one at a time, stopping at the first failure,
// leaves — the simulated-memory bytes, the size, the free list, the
// counters, the returned count and error, and the order value was called
// in — over seeded workloads that repeat keys, fill the table partway
// through a group, start from a churned table, and use SFH tables.
func TestFillMatchesSequentialInsert(t *testing.T) {
	var cases []fillCase
	for seed := uint64(1); seed <= 40; seed++ {
		rng := sim.NewRand(seed * 7919)
		entries := []uint64{16, 64, 100, 256, 1000}[rng.Intn(5)]
		c := fillCase{
			cfg:  Config{Entries: entries, KeyLen: []int{4, 13, 16, 40}[rng.Intn(4)], SFH: seed%3 == 0},
			pre:  rng.Intn(int(entries)),
			n:    uint64(rng.Intn(int(entries)*3/2 + 40)),
			seed: seed,
		}
		if seed%2 == 0 {
			c.universe = uint64(rng.Intn(int(entries)*2) + 1)
		}
		cases = append(cases, c)
	}
	// Named edges: the table fills inside the last group, a duplicate of
	// the group's first key later in the same group, and an empty fill.
	cases = append(cases,
		fillCase{cfg: Config{Entries: 40, KeyLen: 16, SFH: true}, n: 200, seed: 101},
		fillCase{cfg: Config{Entries: 64, KeyLen: 16}, n: 90, seed: 102},
		fillCase{cfg: Config{Entries: 64, KeyLen: 8}, n: 32, universe: 3, seed: 103},
		fillCase{cfg: Config{Entries: 64, KeyLen: 16}, seed: 104},
	)

	for _, c := range cases {
		t.Run(fmt.Sprintf("%+v", c), func(t *testing.T) {
			got, want := fillTable(t, c), fillTable(t, c)
			var gotCalls, wantCalls []uint64
			value := func(calls *[]uint64) func(i uint64) uint64 {
				return func(i uint64) uint64 {
					*calls = append(*calls, i)
					return i*3 + 1
				}
			}
			n, err := got.Fill(c.n, c.fillKey, value(&gotCalls))

			wantN, wantErr := uint64(0), error(nil)
			k := make([]byte, c.cfg.KeyLen)
			wantValue := value(&wantCalls)
			for ; wantN < c.n; wantN++ {
				c.fillKey(wantN, k)
				if wantErr = want.Insert(k, wantValue(wantN)); wantErr != nil {
					break
				}
			}

			if n != wantN || err != wantErr {
				t.Fatalf("Fill = (%d, %v), sequential Insert = (%d, %v)", n, err, wantN, wantErr)
			}
			if !slices.Equal(gotCalls, wantCalls) {
				t.Fatalf("value called for %v, sequential %v", gotCalls, wantCalls)
			}
			if got.Size() != want.Size() || got.Stats() != want.Stats() {
				t.Fatalf("size %d %+v, sequential %d %+v", got.Size(), got.Stats(), want.Size(), want.Stats())
			}
			if !slices.Equal(got.free, want.free) {
				t.Fatalf("free list %v, sequential %v", got.free, want.free)
			}
			if g, w := got.space.FootprintBytes(), want.space.FootprintBytes(); g != w {
				t.Fatalf("%d bytes of pages, sequential %d", g, w)
			}
			size := Footprint(c.cfg)
			gb, wb := make([]byte, size), make([]byte, size)
			got.space.ReadAt(got.Base(), gb)
			want.space.ReadAt(want.Base(), wb)
			if !bytes.Equal(gb, wb) {
				t.Fatal("simulated-memory image differs from the sequential one")
			}
		})
	}
}

// BenchmarkFill times populating a table to 75 % with Fill against the
// Insert loop it replaces; the larger size's buckets are far beyond the
// host's caches, where staging the bucket misses pays.
func BenchmarkFill(b *testing.B) {
	for _, entries := range []uint64{1 << 14, 1 << 21} {
		n := entries * 3 / 4
		key := func(i uint64, k []byte) {
			binary.LittleEndian.PutUint64(k, i)
			binary.LittleEndian.PutUint64(k[8:], i^0xabcdef)
		}
		value := func(i uint64) uint64 { return i*2 + 1 }
		for _, arm := range []string{"staged", "insert"} {
			b.Run(fmt.Sprintf("entries=%d/%s", entries, arm), func(b *testing.B) {
				for range b.N {
					b.StopTimer()
					tbl, err := Create(mem.NewMemory(), mem.NewAllocator(0x1000, 1<<32), Config{Entries: entries, KeyLen: 16})
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					if arm == "staged" {
						if _, err := tbl.Fill(n, key, value); err != nil {
							b.Fatal(err)
						}
						continue
					}
					var k [16]byte
					for i := range n {
						key(i, k[:])
						if err := tbl.Insert(k[:], value(i)); err != nil {
							b.Fatal(err)
						}
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/key")
			})
		}
	}
}
