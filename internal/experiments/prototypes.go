package experiments

import (
	"sync"

	"halo/internal/halo"
)

// prototypes is the store of read-only set-ups shared by the points of one
// run of an experiment's sweep. The paper warms every table before it
// measures (§5.2), and several points of one sweep start from the same
// warmed table: Fig. 9's three table modes at one size, Fig. 10's two
// solutions per placement, the scaling sweep's nine points. Each such set-up
// is built once per run, by the first point that asks, and every point then
// runs on a Platform.Clone of it, so a point still runs on a platform of its
// own, in the state a fresh build leaves.
//
// A prototype is never run and never written after its build: its pages
// are marked shared (mem.Memory.MarkShared), so cloning it only reads it
// and points on any goroutines may clone it at once. The store counts the
// points of the run that have finished; when the last one has, it drops
// every prototype, so nothing outlives the run that built it. Two runs of
// one sweep at once stay correct — a prototype depends only on its key — but
// may drop and rebuild each other's prototypes.
type prototypes struct {
	mu      sync.Mutex
	entries map[any]*prototype
	ran     int         // points of the current run that have finished
	builds  map[any]int // builds per key over the store's life, for tests
}

type prototype struct {
	once sync.Once
	val  any
}

// A prototypeOf is a set-up a prototype can hold: one platform, with
// whatever the points need to find in it.
type prototypeOf interface{ platform() *halo.Platform }

// shared returns the run's prototype for key, which build makes the first
// time a point of the run asks for key. Callers clone it and run only the
// clone. Outside a sweep run (cfg carries no store) it returns a fresh build.
func shared[T prototypeOf](cfg Config, key any, build func() T) T {
	s := cfg.protos
	if s == nil {
		return build()
	}
	s.mu.Lock()
	e := s.entries[key]
	if e == nil {
		if s.entries == nil {
			s.entries = make(map[any]*prototype)
		}
		e = &prototype{}
		s.entries[key] = e
	}
	s.mu.Unlock()
	e.once.Do(func() {
		v := build()
		v.platform().Space.MarkShared()
		e.val = v
		s.mu.Lock()
		if s.builds == nil {
			s.builds = make(map[any]int)
		}
		s.builds[key]++
		s.mu.Unlock()
	})
	return e.val.(T)
}

// finish records that one of a run's n points is done. The last one drops
// every prototype the run built.
func (s *prototypes) finish(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ran++; s.ran >= n {
		s.entries, s.ran = nil, 0
	}
}
