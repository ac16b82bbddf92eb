package halo

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"halo/internal/cpu"
	"halo/internal/cuckoo"
	"halo/internal/mem"
	"halo/internal/stats"
)

// cloneSource builds a platform holding a registered table and one created
// straight in its memory, as tuple spaces and NFs create theirs, both
// populated and warmed: what a prototype holds.
func cloneSource(t *testing.T) (p *Platform, registered, unregistered *cuckoo.Table) {
	t.Helper()
	p = testPlatform(t)
	registered = populatedTable(t, p, 1024, 600)
	unregistered, err := cuckoo.Create(p.Space, p.Alloc, cuckoo.Config{Entries: 512, KeyLen: 16})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 300; i++ {
		if err := unregistered.Insert(key16(1<<20+i), i); err != nil {
			t.Fatal(err)
		}
	}
	p.WarmTable(registered)
	p.WarmTable(unregistered)
	return p, registered, unregistered
}

// snapshotOf encodes p's snapshot: registered tables included, others not.
func snapshotOf(t *testing.T, p *Platform) string {
	t.Helper()
	s := stats.NewSnapshot()
	p.CollectInto(s)
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// sameAsFresh fails unless c and its handles hold what a fresh build (want
// and its handles) holds: every byte of every table, where each table line
// sits in the hierarchy (Present), the handles' geometry, size and counters,
// the snapshot, and the slot the next insert takes (the free list).
func sameAsFresh(t *testing.T, c *Platform, got []*cuckoo.Table, want *Platform, wantTables []*cuckoo.Table) {
	t.Helper()
	if g, w := snapshotOf(t, c), snapshotOf(t, want); g != w {
		t.Fatalf("snapshot %s, fresh build %s", g, w)
	}
	for i, ct := range got {
		wt := wantTables[i]
		if ct.Base() != wt.Base() || ct.Size() != wt.Size() || ct.Stats() != wt.Stats() || ct.Capacity() != wt.Capacity() {
			t.Fatalf("table %d: handle base %#x size %d %+v, fresh %#x %d %+v",
				i, ct.Base(), ct.Size(), ct.Stats(), wt.Base(), wt.Size(), wt.Stats())
		}
		size := cuckoo.Footprint(cuckoo.Config{Entries: ct.Capacity(), KeyLen: ct.KeyLen()})
		gb, wb := make([]byte, size), make([]byte, size)
		c.Space.ReadAt(ct.Base(), gb)
		want.Space.ReadAt(wt.Base(), wb)
		if !bytes.Equal(gb, wb) {
			t.Fatalf("table %d: memory differs from a fresh build", i)
		}
		for a := ct.Base(); a < ct.Base()+mem.Addr(size); a += mem.LineSize {
			g1, g2, g3 := c.Hier.Present(0, a)
			w1, w2, w3 := want.Hier.Present(0, a)
			if g1 != w1 || g2 != w2 || g3 != w3 {
				t.Fatalf("table %d line %#x: present (%v %v %v), fresh (%v %v %v)", i, a, g1, g2, g3, w1, w2, w3)
			}
		}
	}
	if c.Alloc.AllocLines(1) != want.Alloc.AllocLines(1) {
		t.Fatal("the clone's allocator is not where a fresh build's is")
	}
}

// TestCloneIsIndependent: a clone of a populated, warmed platform holds and
// answers what a fresh build does — for a table registered through NewTable
// and for one created straight in its memory, which stays unregistered —
// and a write through either side's handle stays on its side.
func TestCloneIsIndependent(t *testing.T) {
	p, tbl, u := cloneSource(t)
	c, handles := p.Clone(tbl, u)
	ct, cu := handles[0], handles[1]
	if c.Unit.keyBuf[3] != p.Unit.keyBuf[3] || c.Unit.resultBuf[3] != p.Unit.resultBuf[3] {
		t.Fatal("the clone's staging buffers moved")
	}
	fresh, ft, fu := cloneSource(t)
	sameAsFresh(t, c, []*cuckoo.Table{ct, cu}, fresh, []*cuckoo.Table{ft, fu})

	if err := ct.Insert(key16(1000), 7); err != nil {
		t.Fatal(err)
	}
	if err := cu.Insert(key16(2000), 8); err != nil {
		t.Fatal(err)
	}
	if !tbl.Delete(key16(5)) || !u.Delete(key16(1<<20+5)) {
		t.Fatal("source lost a key")
	}
	if _, ok := tbl.Lookup(key16(1000)); ok {
		t.Fatal("an insert through the clone reached the source")
	}
	if _, ok := u.Lookup(key16(2000)); ok {
		t.Fatal("an insert through the unregistered clone reached the source")
	}
	if v, ok := ct.Lookup(key16(5)); !ok || v != 11 {
		t.Fatalf("a delete through the source reached the clone: (%d, %v)", v, ok)
	}
	if v, ok := cu.Lookup(key16(1<<20 + 5)); !ok || v != 5 {
		t.Fatalf("a delete through the source reached the unregistered clone: (%d, %v)", v, ok)
	}
}

// TestClonesOfAMarkedPrototype: once a prototype's pages are marked shared,
// clones taken and run on several goroutines at once (under -race: without
// touching the prototype) each equal a fresh build and leave the prototype
// as it was.
func TestClonesOfAMarkedPrototype(t *testing.T) {
	p, tbl, u := cloneSource(t)
	p.Space.MarkShared()
	before := snapshotOf(t, p)
	fresh, ft, fu := cloneSource(t)
	var wg sync.WaitGroup
	clones := make([]*Platform, 4)
	handles := make([][]*cuckoo.Table, 4)
	for i := range clones {
		wg.Add(1)
		go func() {
			defer wg.Done()
			clones[i], handles[i] = p.Clone(tbl, u)
			th := cpu.NewThread(clones[i].Hier, 0)
			for k := uint64(0); k < 50; k++ {
				handles[i][0].TimedLookup(th, key16(k), cuckoo.DefaultLookupOptions())
				_ = handles[i][1].TimedInsert(th, key16(3000+k*uint64(i+1)), k)
			}
		}()
	}
	wg.Wait()
	if after := snapshotOf(t, p); after != before {
		t.Fatalf("cloning and running the clones moved the prototype: %s, was %s", after, before)
	}
	c, hs := p.Clone(tbl, u)
	sameAsFresh(t, c, hs, fresh, []*cuckoo.Table{ft, fu})
}

// TestCloneRefusesTimedState: once anything timed has run, the clone would
// drop state a fresh platform cannot carry, so Clone panics and names the
// counters that moved.
func TestCloneRefusesTimedState(t *testing.T) {
	cases := []struct {
		name  string
		run   func(p *Platform, tbl *cuckoo.Table, th *cpu.Thread)
		moved string
	}{
		{"TimedLookup", func(p *Platform, tbl *cuckoo.Table, th *cpu.Thread) {
			tbl.TimedLookup(th, key16(1), cuckoo.DefaultLookupOptions())
		}, "cache.l1.misses="},
		{"LookupBAt", func(p *Platform, tbl *cuckoo.Table, th *cpu.Thread) {
			addr := p.Alloc.AllocLines(1)
			p.Space.WriteAt(addr, key16(1))
			p.Unit.LookupBAt(th, tbl.Base(), addr)
		}, "accel.queries=1"},
		{"DMAWrite then a load", func(p *Platform, tbl *cuckoo.Table, th *cpu.Thread) {
			addr := p.Alloc.AllocLines(1)
			p.Hier.DMAWrite(addr)
			th.Load(addr)
		}, "cache.llc.hits=1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := testPlatform(t)
			tbl := populatedTable(t, p, 256, 100)
			p.WarmTable(tbl)
			tc.run(p, tbl, cpu.NewThread(p.Hier, 0))
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, tc.moved) {
					t.Fatalf("Clone after %s: panic %q does not name %q", tc.name, msg, tc.moved)
				}
			}()
			p.Clone(tbl)
		})
	}
}
