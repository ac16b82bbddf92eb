package halo

import (
	"fmt"
	"strings"
	"testing"

	"halo/internal/cpu"
	"halo/internal/cuckoo"
)

// TestCloneIsIndependent: a clone of a populated, warmed platform answers
// like its source, and a write through either handle stays on its side.
func TestCloneIsIndependent(t *testing.T) {
	p := testPlatform(t)
	tbl := populatedTable(t, p, 1024, 600)
	p.WarmTable(tbl)
	c, ct := p.Clone(tbl)
	if ct.Base() != tbl.Base() || ct.Size() != tbl.Size() || ct.Stats() != tbl.Stats() {
		t.Fatalf("clone handle differs: base %#x size %d %+v, source base %#x size %d %+v",
			ct.Base(), ct.Size(), ct.Stats(), tbl.Base(), tbl.Size(), tbl.Stats())
	}
	if c.Unit.keyBuf[3] != p.Unit.keyBuf[3] || c.Unit.resultBuf[3] != p.Unit.resultBuf[3] {
		t.Fatal("the clone's staging buffers moved")
	}
	if err := ct.Insert(key16(1000), 7); err != nil {
		t.Fatal(err)
	}
	if !tbl.Delete(key16(5)) {
		t.Fatal("source lost key 5")
	}
	if _, ok := tbl.Lookup(key16(1000)); ok {
		t.Fatal("an insert through the clone reached the source")
	}
	if v, ok := ct.Lookup(key16(5)); !ok || v != 11 {
		t.Fatalf("a delete through the source reached the clone: (%d, %v)", v, ok)
	}
	if _, _, inLLC := c.Hier.Present(0, tbl.BucketAddr(0)); !inLLC {
		t.Fatal("the clone's LLC lost the warmed table")
	}
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
