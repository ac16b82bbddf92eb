package main

import (
	"slices"
	"time"

	"halo/internal/flowserve"
)

// phases is the run's timeline in nanoseconds since base: ends[0] closes the
// warm-up, every later entry closes one measured window. Callers consult it
// after each call, so a window boundary never interrupts a request.
// traceFrom is the first phase whose calls are recorded as spans (0: never).
type phases struct {
	base      time.Time
	ends      []int64
	traceFrom int
}

// newPhases lays out a warm-up of seconds/5 and a hundred windows of
// seconds/100; with tracing the second fifty windows are the traced ones, so
// one run holds both sides of the tracing-overhead comparison.
func newPhases(seconds float64, traced bool) *phases {
	p := &phases{ends: make([]int64, 1+windows)}
	p.ends[0] = int64(seconds / 5 * 1e9)
	for k := 1; k <= windows; k++ {
		p.ends[k] = p.ends[0] + int64(seconds*1e9)*int64(k)/windows
	}
	if traced {
		p.traceFrom = 1 + windows/2
	}
	return p
}

// windows is how many equal windows the measured time is cut into. They are
// short (100 ms of a 10 s run) because the box's speed changes in phases of
// seconds: the run's figure is a rank among the windows (see typicalBest),
// and many short windows let that rank sit inside the quiet phases.
const windows = 100

// tracedSeconds is how long the traced windows of a traced run last.
func (p *phases) tracedSeconds() float64 {
	return float64(p.ends[windows]-p.ends[p.traceFrom-1]) / 1e9
}

func (p *phases) now() int64 { return int64(time.Since(p.base)) }

func (p *phases) windowSeconds(k int) float64 { return float64(p.ends[k]-p.ends[k-1]) / 1e9 }

// reader is closed-loop caller A: issue a lookup call, wait for it, verify
// every result against the oracle, then issue the next.
type reader struct {
	r     flowserve.Reader
	s     stream
	batch int // keys per call; 1 means the single-key Lookup
	o     *oracle
	layer string // span name of the call under test
	rec   *recorder

	// Results. Window k (1-based, matching phases.ends) covers lat[winEnd[k-1]:winEnd[k]].
	lat       []uint32 // per-call latency, ns, measured windows only
	winEnd    []int
	lookups   []uint64 // keys looked up per measured window
	attempted uint64   // every key looked up, warm-up included
	failed    uint64
	racy      uint64
	callNs    int64 // measured windows: time inside the layer call…
	restNs    int64 // …and outside it (verification, next-batch bookkeeping, clock reads)
}

func (c *reader) run(p *phases) {
	res := make([]flowserve.Result, c.batch)
	s0 := make([]uint64, c.batch)
	// Room for a 10 s table run's samples up front: growing the slice inside
	// the timed window would be the load generator allocating, not the layer.
	c.lat = make([]uint32, 0, 1<<22)
	c.winEnd = make([]int, 1, windows+1)
	c.lookups = make([]uint64, 0, windows)
	phase, pos, inWin := 0, 0, uint64(0)
	keys, idx := c.s.keys[:c.batch], c.s.idx[:c.batch]
	c.o.before(idx, s0)
	t := p.now()
	for {
		if c.batch == 1 {
			res[0].Value, res[0].OK = c.r.Lookup(keys[0])
		} else {
			c.r.LookupMany(keys, res)
		}
		t1 := p.now()
		bad, racy := c.o.check(idx, s0, res)
		tracing := p.traceFrom > 0 && phase >= p.traceFrom
		tv := t1
		if tracing {
			tv = p.now()
		}
		if pos += c.batch; pos+c.batch > len(c.s.idx) {
			pos = 0
		}
		prev := idx
		keys, idx = c.s.keys[pos:pos+c.batch], c.s.idx[pos:pos+c.batch]
		c.o.before(idx, s0)
		t2 := p.now()

		c.attempted += uint64(len(prev))
		c.failed += uint64(bad)
		c.racy += uint64(racy)
		if phase > 0 {
			c.lat = append(c.lat, uint32(min(t1-t, 1<<32-1)))
			c.callNs += t1 - t
			c.restNs += t2 - t1
			inWin += uint64(len(prev))
			if tracing {
				c.rec.call(c.layer, t, t1, tv, t2)
			}
		}
		if t2 >= p.ends[phase] {
			if phase > 0 {
				c.winEnd = append(c.winEnd, len(c.lat))
				c.lookups = append(c.lookups, inWin)
				inWin = 0
			}
			if phase++; phase == len(p.ends) {
				return
			}
		}
		t = t2
	}
}

// windowQuantiles returns each measured window's p50 and p99 call latency in
// microseconds, pooling the readers' samples. Reporting the median of the
// per-window values keeps one scheduler stall from setting the run's p99.
// The slowest workload still makes about a thousand calls per window, so
// every p99 has ten samples beyond it.
func windowQuantiles(readers []*reader) (p50s, p99s []float64, samples int) {
	for k := 1; k <= windows; k++ {
		var pool []uint32
		for _, c := range readers {
			pool = append(pool, c.lat[c.winEnd[k-1]:c.winEnd[k]]...)
		}
		slices.Sort(pool)
		p50s = append(p50s, percentile(pool, 0.50)/1e3)
		p99s = append(p99s, percentile(pool, 0.99)/1e3)
		samples += len(pool)
	}
	return p50s, p99s, samples
}

// writer is closed-loop caller B: the only mutator, so it knows every key's
// state exactly and publishes it through the oracle around each mutation.
type writer struct {
	w    flowserve.Writer
	ops  []wop
	keys [][]byte
	o    *oracle

	writes    []uint64 // mutations completed per measured window
	attempted uint64
	failed    uint64
}

func (c *writer) run(p *phases) {
	c.writes = make([]uint64, 0, windows)
	phase, inWin := 0, uint64(0)
	for i := 0; ; i++ {
		op := c.ops[i%len(c.ops)]
		key, st := c.keys[op.idx], &c.o.state[op.idx]
		gen := st.Load()>>2 + 1
		n := uint64(1)
		if op.churn {
			st.Store(gen<<2 | kindFlux)
			ok := c.w.Delete(key)
			st.Store(gen<<2 | kindAbsent)
			gen++
			st.Store(gen<<2 | kindFlux)
			err := c.w.Insert(key, stamp(op.idx, gen))
			st.Store(gen<<2 | kindPresent)
			n = 2
			if !ok {
				c.failed++
			}
			if err != nil {
				c.failed++
			}
		} else {
			st.Store(gen<<2 | kindFlux)
			ok := c.w.Update(key, stamp(op.idx, gen))
			st.Store(gen<<2 | kindPresent)
			if !ok {
				c.failed++
			}
		}
		c.attempted += n
		inWin += n
		if i%8 != 7 { // a clock read per mutation would be a fifth of an in-process Update
			continue
		}
		if p.now() >= p.ends[phase] {
			if phase > 0 {
				c.writes = append(c.writes, inWin)
			}
			inWin = 0
			if phase++; phase == len(p.ends) {
				return
			}
		}
	}
}
