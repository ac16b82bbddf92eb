package main

import (
	"sync/atomic"

	"halo/internal/flowserve"
	"halo/internal/packet"
	"halo/internal/sim"
	"halo/internal/trafficgen"
)

// mix derives an independent sub-seed from the run seed (splitmix64), so the
// population, each caller's stream and the writer's op list never share an
// RNG sequence.
func mix(seed, tag uint64) uint64 {
	z := seed + (tag+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// population is a workload's flow set as packet-header keys. Flows
// [0,resident) are installed before the run; the rest exist only so lookups
// of never-inserted keys are part of the mix.
type population struct {
	w        *trafficgen.Workload
	keys     [][]byte
	resident int
}

func newPopulation(flows, absent int, pop trafficgen.Popularity, seed uint64) *population {
	w := trafficgen.Generate(trafficgen.Scenario{
		Name: "bench", Flows: flows + absent, Rules: 1, Popularity: pop,
	}, seed)
	const kl = packet.HeaderKeyLen
	arena := make([]byte, len(w.Flows)*kl)
	keys := make([][]byte, len(w.Flows))
	for i, f := range w.Flows {
		keys[i] = arena[i*kl : (i+1)*kl : (i+1)*kl]
		f.PutHeaderKey(keys[i])
	}
	return &population{w: w, keys: keys, resident: flows}
}

// stream is one caller's pre-generated request sequence: flow indexes drawn
// from the population's popularity distribution, and the matching key
// slices laid out so a batch is a plain subslice — the timed loop does no
// generator work at all.
type stream struct {
	idx  []int32
	keys [][]byte
}

func (p *population) newStream(seed uint64, n int) stream {
	src := p.w.NewStream(seed)
	s := stream{idx: make([]int32, n), keys: make([][]byte, n)}
	for i := range s.idx {
		f := src.NextFlow()
		s.idx[i] = int32(f)
		s.keys[i] = p.keys[f]
	}
	return s
}

// wop is one step of the closed-loop writer: Update a key drawn from the
// popularity distribution (a hot key), or — churn — Delete then Insert a key
// drawn uniformly (a tail key).
type wop struct {
	idx   int32
	churn bool
}

func (p *population) newWriterOps(seed uint64, n int) []wop {
	hot := p.w.NewStream(mix(seed, 0))
	tail := sim.NewRand(mix(seed, 1))
	ops := make([]wop, n)
	for i := range ops {
		if i%4 == 3 {
			ops[i] = wop{idx: int32(tail.Intn(p.resident)), churn: true}
		} else {
			ops[i] = wop{idx: int32(hot.NextFlow())}
		}
	}
	return ops
}

// Values are stamped index<<genBits | generation, so a value returned for the
// wrong key, or a stale generation, is recognisable on its own.
const genBits = 20

func stamp(idx int32, gen uint64) uint64 {
	return uint64(idx)<<genBits | gen&(1<<genBits-1)
}

// A flow's published state is gen<<2 | kind. The writer stores kindFlux
// before it touches the table and the settled kind after, with a fresh
// generation each time, so two equal settled reads around a lookup prove the
// table held exactly that state for the whole call.
const (
	kindAbsent  = 0
	kindPresent = 1
	kindFlux    = 2
)

// oracle is the load generator's exact model of the table. A lookup result
// either matches it or counts as failed; the only excuse is a state word that
// changed (or was in flux) across the call, and even then a hit must carry
// the right flow's stamp.
type oracle struct {
	resident int32
	state    []atomic.Uint64 // nil when no caller writes: [0,resident) present at generation 0
}

func newOracle(p *population, writable bool) *oracle {
	o := &oracle{resident: int32(p.resident)}
	if writable {
		o.state = make([]atomic.Uint64, len(p.keys))
		for i := 0; i < p.resident; i++ {
			o.state[i].Store(kindPresent)
		}
	}
	return o
}

// before records the state words of a batch ahead of its lookup.
func (o *oracle) before(idx []int32, s0 []uint64) {
	if o.state == nil {
		return
	}
	for j, ix := range idx {
		s0[j] = o.state[ix].Load()
	}
}

// check judges a batch's results against the states recorded by before.
// racy counts results excused by a concurrent write.
func (o *oracle) check(idx []int32, s0 []uint64, res []flowserve.Result) (failed, racy int) {
	for j, ix := range idx {
		r := res[j]
		if o.state == nil {
			if want := ix < o.resident; r.OK != want || (want && r.Value != stamp(ix, 0)) {
				failed++
			}
			continue
		}
		s := s0[j]
		if s != o.state[ix].Load() || s&3 == kindFlux {
			racy++
			if r.OK && int32(r.Value>>genBits) != ix {
				failed++
			}
			continue
		}
		if want := s&3 == kindPresent; r.OK != want || (want && r.Value != stamp(ix, s>>2)) {
			failed++
		}
	}
	return failed, racy
}
