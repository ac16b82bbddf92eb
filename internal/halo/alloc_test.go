package halo

import (
	"testing"

	"halo/internal/cpu"
)

// TestAccessAllocatesNothing pins the allocation-free query path: once the
// table is warm, a blocking lookup (hit, miss, and hit under the hardware
// lock) and a tree walk allocate nothing. Each case checks first that it
// takes the path it names.
func TestAccessAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		name  string
		lock  bool
		key   uint64
		found bool
	}{
		{"LookupBAt hit", false, 7, true},
		{"LookupBAt miss", false, 1 << 40, false},
		{"LookupBAt hit with LockEnabled", true, 7, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultPlatformConfig()
			cfg.Unit.Accel.LockEnabled = tc.lock
			p := NewPlatform(cfg)
			tbl := populatedTable(t, p, 4096, 3000)
			p.WarmTable(tbl)
			keyAddr := p.Alloc.AllocLines(1)
			p.Space.WriteAt(keyAddr, key16(tc.key))
			th := cpu.NewThread(p.Hier, 0)
			var found bool
			lookup := func() { _, found = p.Unit.LookupBAt(th, tbl.Base(), keyAddr) }
			for i := 0; i < 1000; i++ {
				lookup()
			}
			if found != tc.found {
				t.Fatalf("found = %v, want %v", found, tc.found)
			}
			if allocs := testing.AllocsPerRun(1000, lookup); allocs != 0 {
				t.Fatalf("%v allocs per lookup, want 0", allocs)
			}
		})
	}
	t.Run("WalkB", func(t *testing.T) {
		p := testPlatform(t)
		root := buildTinyTree(p)
		keyAddr := p.Alloc.AllocLines(1)
		p.Space.WriteAt(keyAddr, []byte{5, 0, 0, 0})
		th := cpu.NewThread(p.Hier, 0)
		var r WalkResult
		walk := func() { r = p.Unit.WalkB(th, root, keyAddr, 4) }
		for i := 0; i < 1000; i++ {
			walk()
		}
		if !r.Found || r.Value != 100 {
			t.Fatalf("walk = %+v, want the left leaf", r)
		}
		if allocs := testing.AllocsPerRun(1000, walk); allocs != 0 {
			t.Fatalf("%v allocs per walk, want 0", allocs)
		}
	})
}
