package experiments

import (
	"encoding/json"
	"fmt"
	"testing"

	"halo/internal/cpu"
	"halo/internal/cuckoo"
	"halo/internal/halo"
	"halo/internal/mem"
	"halo/internal/sim"
	"halo/internal/stats"
)

// fixtureSizes are an LLC-resident table and the smallest power of two whose
// table (40 B a slot) outgrows the 32 MB LLC; the second is skipped under
// -short and -race.
func fixtureSizes() []uint64 {
	if testing.Short() || raceEnabled {
		return []uint64{1 << 14}
	}
	return []uint64{1 << 14, 1 << 20}
}

// fixtureRun drives f through the paths the raw-lookup experiments measure —
// software lookups without and with the optimistic lock, HALO blocking and
// non-blocking lookups — and then a timed insert/delete churn, and returns
// the thread clock after each and the encoded snapshot of the platform and
// thread at the end.
func fixtureRun(t *testing.T, f *lookupFixture) (clocks []sim.Cycle, snap string) {
	t.Helper()
	const lookups = 400
	th := f.thread
	fig10SoftwarePass(f, lookups, false)
	clocks = append(clocks, th.Now)
	fig10SoftwarePass(f, lookups, true)
	clocks = append(clocks, th.Now)
	for i := 0; i < lookups; i++ {
		f.p.Unit.LookupBAt(th, f.table.Base(), f.stageKeyDMA(uint64(i*7)))
	}
	clocks = append(clocks, th.Now)
	qs := make([]halo.NBQuery, 8)
	rs := make([]halo.NBResult, 8)
	for i := 0; i < lookups; i += len(qs) {
		for j := range qs {
			qs[j] = halo.NBQuery{TableAddr: f.table.Base(), KeyAddr: f.stageKeyDMA(uint64((i + j) * 11))}
		}
		f.p.Unit.LookupManyNBInto(th, qs, rs)
	}
	clocks = append(clocks, th.Now)
	var kb [testKeyLen]byte
	for i := uint64(0); i < lookups/4; i++ {
		testKeyInto(f.fill+i, kb[:])
		if err := f.table.TimedInsert(th, kb[:], i); err != nil {
			t.Fatal(err)
		}
		testKeyInto(i*13%f.fill, kb[:])
		f.table.TimedDelete(th, kb[:])
	}
	clocks = append(clocks, th.Now)
	s := stats.NewSnapshot()
	collectInto(s, f.p, th)
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return clocks, string(data)
}

// TestFixtureCloneRunsLikeAFreshBuild: a clone taken before anything ran,
// and its source after the clone has run, each run exactly like a fixture
// built from scratch — same clocks, same snapshot.
func TestFixtureCloneRunsLikeAFreshBuild(t *testing.T) {
	for _, entries := range fixtureSizes() {
		t.Run(fmt.Sprintf("entries=%d", entries), func(t *testing.T) {
			source := newLookupFixture(entries, 0.75)
			wantClocks, wantSnap := fixtureRun(t, source.clone())
			for _, r := range []struct {
				name string
				f    *lookupFixture
			}{{"source after the clone ran", source}, {"fresh", newLookupFixture(entries, 0.75)}} {
				clocks, snap := fixtureRun(t, r.f)
				if fmt.Sprint(clocks) != fmt.Sprint(wantClocks) {
					t.Errorf("%s: clocks after each pass %v, the clone's %v", r.name, clocks, wantClocks)
				}
				if snap != wantSnap {
					t.Errorf("%s: snapshot differs from the clone's:\n%s\n%s", r.name, snap, wantSnap)
				}
			}
		})
	}
}

// sequentialFixture builds what fixtureOn builds with the warm-up after the
// fill rather than beside it.
func sequentialFixture(entries uint64, occupancy float64) *lookupFixture {
	p := halo.NewPlatform(halo.DefaultPlatformConfig())
	table, err := p.NewTable(cuckoo.Config{Entries: entries, KeyLen: 16})
	if err != nil {
		panic(err)
	}
	f := &lookupFixture{p: p, table: table, thread: cpu.NewThread(p.Hier, 0)}
	var kb [testKeyLen]byte
	for n := max(uint64(float64(entries)*occupancy), 1); f.fill < n; f.fill++ {
		testKeyInto(f.fill, kb[:])
		if table.Insert(kb[:], f.fill*2+1) != nil {
			break
		}
	}
	pool := p.Alloc.AllocLines(keyPoolLines)
	for i := 0; i < keyPoolLines; i++ {
		f.keyPool = append(f.keyPool, pool+mem.Addr(i)*mem.LineSize)
	}
	p.WarmTable(table)
	return f
}

// TestFixtureWarmBesideFillMatchesSequential: fixtureOn's overlapped fill
// and warm-up leave every table and key-pool line where fill-then-warm
// leaves it, and a timed run gives the same clocks and snapshot.
func TestFixtureWarmBesideFillMatchesSequential(t *testing.T) {
	for _, entries := range fixtureSizes() {
		t.Run(fmt.Sprintf("entries=%d", entries), func(t *testing.T) {
			got, want := newLookupFixture(entries, 0.75), sequentialFixture(entries, 0.75)
			if got.fill != want.fill || got.table.Stats() != want.table.Stats() {
				t.Fatalf("fill %d %+v, sequential %d %+v", got.fill, got.table.Stats(), want.fill, want.table.Stats())
			}
			tb := got.table
			lines := []mem.Addr{tb.Base()}
			for a := tb.BucketAddr(0); a <= tb.BucketAddr(tb.BucketCount()-1); a += mem.LineSize {
				lines = append(lines, a)
			}
			for a := tb.KVAddr(0); a <= tb.KVAddr(uint32(tb.Capacity()-1)); a += mem.LineSize {
				lines = append(lines, a)
			}
			lines = append(lines, got.keyPool...)
			for _, a := range lines {
				g1, g2, g3 := got.p.Hier.Present(0, a)
				w1, w2, w3 := want.p.Hier.Present(0, a)
				if g1 != w1 || g2 != w2 || g3 != w3 {
					t.Fatalf("line %#x: present (L1 %v, L2 %v, LLC %v), sequential (%v, %v, %v)", a, g1, g2, g3, w1, w2, w3)
				}
			}
			gotClocks, gotSnap := fixtureRun(t, got)
			wantClocks, wantSnap := fixtureRun(t, want)
			if fmt.Sprint(gotClocks) != fmt.Sprint(wantClocks) || gotSnap != wantSnap {
				t.Errorf("overlapped build runs differently: clocks %v vs %v\n%s\n%s", gotClocks, wantClocks, gotSnap, wantSnap)
			}
		})
	}
}
