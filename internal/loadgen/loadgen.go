// Package loadgen is the root module's one load generator: the seeded flow
// population and the value every flow carries, the flowserve.Table sized and
// filled for it, one goroutine's
// draw → lookup → verify scratch, and the oracle that judges a miss exactly.
// cmd/flowload and internal/hypotheses drive every target through it, so a
// lookup is drawn, timed and verified the same way whether it lands on an
// in-process table, a flowwire client or the cluster router.
//
// The names follow bench/keys.go (population, stream, oracle) so that bench/
// can later be re-pointed here mechanically.
package loadgen

import (
	"errors"
	"fmt"
	"sync/atomic"

	"halo/internal/flowserve"
	"halo/internal/packet"
	"halo/internal/trafficgen"
)

// Mix derives an independent sub-seed from a run seed (splitmix64), so the
// population and each caller's streams never share an RNG sequence.
func Mix(seed, tag uint64) uint64 {
	z := seed + (tag+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Value is what every writer installs for flow i (never zero). It does not
// change across a delete+reinsert, so a hit that carries anything else is a
// hit on another flow's entry.
func Value(i int) uint64 { return uint64(i) + 1 }

// Population is a seeded flow set as packet-header keys. Key i aliases one
// arena, so callers share it read-only.
type Population struct {
	Keys [][]byte
	w    *trafficgen.Workload
}

// NewPopulation generates flows flows drawn with popularity pop.
func NewPopulation(flows int, pop trafficgen.Popularity, seed uint64) *Population {
	w := trafficgen.Generate(trafficgen.Scenario{
		Name: "loadgen", Flows: flows, Rules: 1, Popularity: pop,
	}, seed)
	const kl = packet.HeaderKeyLen
	arena := make([]byte, len(w.Flows)*kl)
	keys := make([][]byte, len(w.Flows))
	for i, f := range w.Flows {
		keys[i] = arena[i*kl : (i+1)*kl : (i+1)*kl]
		f.PutHeaderKey(keys[i])
	}
	return &Population{Keys: keys, w: w}
}

// Entries is the table capacity n flows are given: ~12% slot headroom, since
// shard assignment is by hash and per-shard occupancy varies around n/shards.
func Entries(n int) uint64 { return uint64(n) + uint64(n)/8 + 1024 }

// NewTable returns an empty table with room for flows flows.
func NewTable(flows, shards int) (*flowserve.Table, error) {
	return flowserve.New(flowserve.Config{Shards: shards, Entries: Entries(flows), KeyLen: packet.HeaderKeyLen})
}

// NewTable returns a table sized for the population and filled with it.
func (p *Population) NewTable(shards int) (*flowserve.Table, error) {
	tbl, err := NewTable(len(p.Keys), shards)
	if err != nil {
		return nil, err
	}
	return tbl, p.Install(tbl, 0, len(p.Keys), 1)
}

// Install inserts flows [lo,hi) through w, striped across par goroutines (a
// remote install pays a round trip per insert, so parallelism matters there).
func (p *Population) Install(w flowserve.Writer, lo, hi, par int) error {
	return p.striped(lo, hi, par, func(i int) error {
		if err := w.Insert(p.Keys[i], Value(i)); err != nil {
			return fmt.Errorf("install flow %d: %w", i, err)
		}
		return nil
	})
}

// Uninstall deletes the whole population through w. A server outlives the
// population it was loaded with, and the next one may reuse a key under a
// different index.
func (p *Population) Uninstall(w flowserve.Writer, par int) {
	_ = p.striped(0, len(p.Keys), par, func(i int) error { // fn never fails
		w.Delete(p.Keys[i])
		return nil
	})
}

// striped calls fn(i) for every i in [lo,hi), stripe s taking lo+s,
// lo+s+par, … and stopping at its first error; the stripes' errors come back
// joined.
func (p *Population) striped(lo, hi, par int, fn func(i int) error) error {
	stripe := func(s int) error {
		for i := lo + s; i < hi; i += par {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	if par == 1 {
		return stripe(0)
	}
	errs := make(chan error, par)
	for s := 0; s < par; s++ {
		go func(s int) { errs <- stripe(s) }(s)
	}
	var err error
	for s := 0; s < par; s++ {
		err = errors.Join(err, <-errs)
	}
	return err
}

// A flow's state word is generation<<fluxBits | writers in flux. A churner
// adds one before it touches the table and, when done, takes it back and adds
// a generation. The word counts writers because churners overlap (flowload
// runs one per worker): with a plain settled/in-flux kind, the first churner
// to finish would publish "settled" while the second still had the key out.
const (
	fluxBits = 16
	fluxMask = 1<<fluxBits - 1
)

// Oracle is the load generator's exact model of the table: every flow a
// caller draws is installed and carries Value(i), except while a churner has
// it out. A lookup either matches that or is an error; the only excuse for a
// miss is a state word that was in flux, or moved, across the call — and a
// hit must carry the flow's own value even then.
type Oracle struct {
	state []atomic.Uint64 // nil when no caller churns: nothing excuses a miss
}

// NewOracle returns the oracle for p. Without churn it keeps no state.
func NewOracle(p *Population, churn bool) *Oracle {
	o := &Oracle{}
	if churn {
		o.state = make([]atomic.Uint64, len(p.Keys))
	}
	return o
}

func (o *Oracle) begin(i int) { o.state[i].Add(1) }
func (o *Oracle) end(i int)   { o.state[i].Add(1<<fluxBits - 1) }

// Caller is one goroutine's scratch: its stream, and the batch it last drew —
// Keys to look up, Results to fill in, and what Verify needs to judge them.
type Caller struct {
	Keys    [][]byte
	Results []flowserve.Result

	p      *Population
	o      *Oracle
	stream *trafficgen.Stream
	churn  *trafficgen.Stream
	idx    []int
	s0     []uint64
}

// NewCaller returns a caller drawing batch keys a call from p's popularity
// distribution. The same seed replays the same sequence.
func (p *Population) NewCaller(o *Oracle, seed uint64, batch int) *Caller {
	return &Caller{
		Keys:    make([][]byte, batch),
		Results: make([]flowserve.Result, batch),
		p:       p,
		o:       o,
		stream:  p.w.NewStream(seed),
		churn:   p.w.NewStream(Mix(seed, 0)),
		idx:     make([]int, batch),
		s0:      make([]uint64, batch),
	}
}

// Draw fills Keys with the next batch, folding flow indexes into [0,limit) —
// the installed prefix while a population is still being loaded — and
// records each flow's state word ahead of the lookup.
func (c *Caller) Draw(limit int) {
	for j := range c.idx {
		i := c.stream.NextFlow()
		if i >= limit {
			i %= limit
		}
		c.idx[j], c.Keys[j] = i, c.p.Keys[i]
		if c.o.state != nil {
			c.s0[j] = c.o.state[i].Load()
		}
	}
}

// Verify judges Results against the batch Draw produced. excused counts the
// misses a concurrent churner accounts for; anything else that is not a hit
// with the flow's own value is an error.
func (c *Caller) Verify() (excused int, err error) {
	for j, i := range c.idx {
		r := c.Results[j]
		switch s0 := c.s0[j]; {
		case r.OK && r.Value != Value(i):
			return excused, fmt.Errorf("flow %d returned value %d, want %d", i, r.Value, Value(i))
		case r.OK:
		case c.o.state != nil && (s0&fluxMask != 0 || s0 != c.o.state[i].Load()):
			excused++
		default:
			return excused, fmt.Errorf("flow %d missed with no writer in flux", i)
		}
	}
	return excused, nil
}

// Churn takes one flow drawn from the caller's churn stream out of the table
// and puts it back, under the oracle's flux count. A Delete that finds the
// key gone lost the race to an overlapping churner, who reinstalls it; a
// reinstall that finds it already back leaves the table as the oracle has it.
func (c *Caller) Churn(w flowserve.Writer) error {
	i := c.churn.NextFlow()
	c.o.begin(i)
	defer c.o.end(i)
	if !w.Delete(c.p.Keys[i]) {
		return nil
	}
	if err := w.Insert(c.p.Keys[i], Value(i)); err != nil && !errors.Is(err, flowserve.ErrKeyExists) {
		return fmt.Errorf("churn: reinstall flow %d: %w", i, err)
	}
	return nil
}
