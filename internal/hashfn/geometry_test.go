package hashfn

import "testing"

// model is a bucket array of signatures, the view Displacer.Path gets of a
// table.
type model [][EntriesPerBucket]uint16

func (m model) sigs(b uint64) [EntriesPerBucket]uint16 { return m[b] }

func (m model) freeEntry(b uint64) int {
	for e, s := range m[b] {
		if s == 0 {
			return e
		}
	}
	return -1
}

// apply makes path's moves last to first, as both tables do.
func (m model) apply(t *testing.T, path []Move) {
	t.Helper()
	n := uint64(len(m))
	for i := len(path) - 1; i >= 0; i-- {
		mv := path[i]
		sig := m[mv.Bucket][mv.Entry]
		alt := AltBucket(mv.Bucket, sig, n)
		ae := m.freeEntry(alt)
		if ae < 0 {
			t.Fatalf("move %d of %v: bucket %d has no free entry", i, path, alt)
		}
		m[alt][ae], m[mv.Bucket][mv.Entry] = sig, 0
	}
}

// checkChain requires path to start in b1 or b2, each move to land in the
// bucket the next move empties, and the last to land in a bucket with a free
// entry.
func (m model) checkChain(t *testing.T, path []Move, b1, b2 uint64) {
	t.Helper()
	if len(path) == 0 || path[0].Bucket != b1 && path[0].Bucket != b2 {
		t.Fatalf("path %v does not start in candidate bucket %d or %d", path, b1, b2)
	}
	for i, mv := range path {
		sig := m[mv.Bucket][mv.Entry]
		if sig == 0 {
			t.Fatalf("move %d of %v names an empty entry", i, path)
		}
		alt := AltBucket(mv.Bucket, sig, uint64(len(m)))
		if i+1 < len(path) && path[i+1].Bucket != alt {
			t.Fatalf("move %d of %v lands in bucket %d, but move %d empties bucket %d", i, path, alt, i+1, path[i+1].Bucket)
		}
		if i+1 == len(path) && m.freeEntry(alt) < 0 {
			t.Fatalf("last move of %v lands in full bucket %d", path, alt)
		}
	}
}

func TestDisplacerPathNilWhenEveryEntryOccupied(t *testing.T) {
	m := make(model, 8)
	for b := range m {
		for e := range m[b] {
			m[b][e] = uint16(b*EntriesPerBucket + e + 1)
		}
	}
	var d Displacer
	b1, b2, _ := Buckets(Hash64(SeedPrimary, 1), uint64(len(m)), SigBits)
	if path := d.Path(b1, b2, uint64(len(m)), m.sigs); path != nil {
		t.Fatalf("Path over a table with no free entry = %v, want nil", path)
	}
}

// fillModel inserts keys 0, 1, ... into m the way the tables do — a free
// candidate entry, else a displacement chain — checking every chain, until
// Path finds none. It returns the candidate buckets of the key that failed.
func fillModel(t *testing.T, m model, d *Displacer) (b1, b2 uint64, keys int) {
	t.Helper()
	n := uint64(len(m))
	for ; ; keys++ {
		b1, b2, sig := Buckets(Hash64(SeedPrimary, uint64(keys)), n, SigBits)
		if m.freeEntry(b1) < 0 && m.freeEntry(b2) < 0 {
			path := d.Path(b1, b2, n, m.sigs)
			if path == nil {
				return b1, b2, keys
			}
			m.checkChain(t, path, b1, b2)
			m.apply(t, path)
		}
		b := b1
		if m.freeEntry(b1) < 0 {
			b = b2
		}
		e := m.freeEntry(b)
		if e < 0 {
			t.Fatalf("key %d: the displacement freed neither bucket %d nor %d", keys, b1, b2)
		}
		m[b][e] = sig
	}
}

func TestDisplacerPathChainsUntilTableFull(t *testing.T) {
	m := make(model, 1<<10)
	var d Displacer
	_, _, keys := fillModel(t, m, &d)
	// A nil Path means the table is full: 8-way buckets with a bounded BFS
	// reach well past 90 % before a key finds no chain.
	load := float64(keys) / float64(len(m)*EntriesPerBucket)
	t.Logf("%d keys in %d entries: load %.3f", keys, len(m)*EntriesPerBucket, load)
	if load < 0.9 {
		t.Fatalf("Path gave up at load %.3f, want >= 0.9", load)
	}
}

func TestDisplacerPathAllocatesNothingWhenWarm(t *testing.T) {
	m := make(model, 1<<10)
	var d Displacer
	b1, b2, _ := fillModel(t, m, &d)
	n := uint64(len(m))
	if a := testing.AllocsPerRun(20, func() {
		if d.Path(b1, b2, n, m.sigs) != nil {
			t.Fatal("a full table found a path")
		}
	}); a != 0 {
		t.Errorf("a failing Path allocates %.1f times, want 0", a)
	}
	// Free one entry one move from b1: the search now ends in a path.
	alt := AltBucket(b1, m[b1][0], n)
	m[alt][EntriesPerBucket-1] = 0
	if a := testing.AllocsPerRun(20, func() {
		m.checkChain(t, d.Path(b1, b2, n, m.sigs), b1, b2)
	}); a != 0 {
		t.Errorf("a succeeding Path allocates %.1f times, want 0", a)
	}
}
