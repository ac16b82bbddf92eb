package experiments

import (
	"fmt"
	"io"

	"halo/internal/classify"
	"halo/internal/cuckoo"
	"halo/internal/halo"
	"halo/internal/mem"
	"halo/internal/metrics"
	"halo/internal/packet"
	"halo/internal/sim"
	"halo/internal/stats"
	"halo/internal/tcam"
)

// Fig11Point is one (solution, tuple count) tuple-space-search measurement.
type Fig11Point struct {
	Mode                  Fig9Mode
	Tuples                int
	CyclesPerClassify     float64
	NormalizedToSoft      float64
	ClassificationsPerSec float64
}

// Fig11Result reproduces Fig. 11: tuple space search throughput with 5, 10,
// 15 and 20 tuples of 1024 rules each.
type Fig11Result struct {
	Points []Fig11Point
	Table  *metrics.Table
}

// fig11Cell is one (tuple count, mode) coordinate.
type fig11Cell struct {
	tuples int
	mode   Fig9Mode
}

func fig11TupleCounts(cfg Config) []int {
	if cfg.Quick {
		return []int{5, 20}
	}
	return []int{5, 10, 15, 20}
}

func fig11Cells(cfg Config) []fig11Cell {
	var cells []fig11Cell
	for _, nt := range fig11TupleCounts(cfg) {
		for _, mode := range Fig9Modes {
			cells = append(cells, fig11Cell{nt, mode})
		}
	}
	return cells
}

// fig11 is one cell per (tuple count, mode); a row is the cell's cycles per
// classification.
var fig11 = experiment[fig11Cell, float64, *Fig11Result]{
	id:    "fig11",
	cells: fig11Cells,
	label: func(c fig11Cell) string { return fmt.Sprintf("%s/%d-tuples", c.mode, c.tuples) },
	run: func(cfg Config, _ int, c fig11Cell, snap *stats.Snapshot) float64 {
		return runFig11Point(cfg, c.mode, c.tuples, pickSize(cfg, 400, 3000), snap)
	},
	assemble: assembleFig11,
	render:   func(r *Fig11Result, w io.Writer) { r.Table.Render(w) },
}

func assembleFig11(_ Config, cells []fig11Cell, cycles []float64) *Fig11Result {
	res := &Fig11Result{
		Table: metrics.NewTable("Figure 11: tuple space search throughput (normalized to software)",
			"tuples", "software", "halo-B", "halo-NB", "tcam", "sram-tcam"),
	}
	res.Table.SetCaption("paper: HALO non-blocking scales TSS up to 23.4x; blocking mode flattens out")

	// As in Fig. 9: modes innermost, software first, one table row per
	// tuple count.
	var software float64
	var row []any
	for i, c := range cells {
		if c.mode == ModeSoftware {
			software = cycles[i]
			row = []any{c.tuples}
		}
		norm := software / cycles[i]
		res.Points = append(res.Points, Fig11Point{
			Mode: c.mode, Tuples: c.tuples,
			CyclesPerClassify:     cycles[i],
			NormalizedToSoft:      norm,
			ClassificationsPerSec: ClockGHz * 1e9 / cycles[i],
		})
		row = append(row, fmt.Sprintf("%.2fx (%.0fcyc)", norm, cycles[i]))
		if c.mode == Fig9Modes[len(Fig9Modes)-1] {
			res.Table.AddRow(row...)
		}
	}
	return res
}

// Point fetches a measurement.
func (r *Fig11Result) Point(mode Fig9Mode, tuples int) (Fig11Point, bool) {
	for _, pt := range r.Points {
		if pt.Mode == mode && pt.Tuples == tuples {
			return pt, true
		}
	}
	return Fig11Point{}, false
}

// newFig11TupleSpace builds a tuple space with nt tuples × 1024 megaflow
// rules (paper §5.2; note 4: these "flows" are megaflows with wildcards) and
// returns query keys that each hit a rule in a uniformly random tuple.
func newFig11TupleSpace(p *halo.Platform, nt int, seed uint64) (*classify.TupleSpace, []packet.FiveTuple) {
	// Subtables are allocated for growth (an NFV switch expects tens of
	// thousands of megaflows) and hold 1024 rules each for this experiment,
	// so probes spread across bucket arrays far larger than the private
	// caches — the tables live in the LLC, as in the paper's platform.
	ts := classify.NewTupleSpace(p.Space, p.Alloc, classify.FirstMatch, 16384)
	rng := sim.NewRand(seed)
	var matchKeys []packet.FiveTuple
	for t := 0; t < nt; t++ {
		// Each tuple gets a distinct mask: exact dst port + a source
		// prefix of varying length.
		mask := classify.Mask{
			SrcIPBits: uint8(4 + t), DstIPBits: 0,
			SrcPortWild: true, DstPortWild: false, ProtoWild: true,
		}
		for r := 0; r < 1024; r++ {
			pat := packet.FiveTuple{
				SrcIP:   rng.Uint32(),
				DstPort: uint16(r),
			}
			m := classify.Match{RuleID: uint32(t*1024 + r + 1), Priority: uint16(t)}
			if err := ts.InsertRule(mask, pat, m); err != nil {
				panic(err)
			}
			// A key matching this rule: same prefix + port, random rest.
			key := mask.Apply(pat)
			key.SrcIP |= rng.Uint32() & (^uint32(0) >> (4 + uint(t)))
			key.DstIP = rng.Uint32()
			key.SrcPort = uint16(rng.Uint32())
			key.Proto = packet.ProtoUDP
			matchKeys = append(matchKeys, key)
		}
	}
	return ts, matchKeys
}

// fig11Space is a Fig. 11 tuple space, warmed, on its own platform, with
// the query keys that hit its rules: the set-up every mode of one tuple
// count shares.
type fig11Space struct {
	p    *halo.Platform
	ts   *classify.TupleSpace
	keys []packet.FiveTuple
}

func (s *fig11Space) platform() *halo.Platform { return s.p }

// fig11SpaceKey names a shared tuple space.
type fig11SpaceKey struct {
	tuples int
	seed   uint64
}

// sharedFig11Space returns the run's prototype tuple space of nt tuples.
// Only the table modes run on it, each on a clone; the TCAM modes read
// its rules and keys.
func sharedFig11Space(cfg Config, nt int) *fig11Space {
	return shared(cfg, fig11SpaceKey{nt, cfg.Seed}, func() *fig11Space {
		p := halo.NewPlatform(halo.DefaultPlatformConfig())
		ts, keys := newFig11TupleSpace(p, nt, cfg.Seed)
		for _, tp := range ts.Tuples() {
			p.WarmTable(tp.Table)
		}
		return &fig11Space{p: p, ts: ts, keys: keys}
	})
}

func runFig11Point(cfg Config, mode Fig9Mode, nt, classifications int, snap *stats.Snapshot) float64 {
	space := sharedFig11Space(cfg, nt)
	if mode == ModeTCAM || mode == ModeSRAMTCAM {
		return runFig11TCAM(mode, space, classifications, cfg.Seed, snap)
	}
	p, ts := space.ts.Clone(space.p)
	keys := space.keys
	th := newThreadOn(p)
	rng := sim.NewRand(cfg.Seed ^ 0xfeed)
	next := func() packet.FiveTuple { return keys[rng.Intn(len(keys))] }

	// Between classifications a PMD thread does packet IO and batching work
	// over megabytes of buffers; that churn keeps the tuple tables out of
	// the private caches (they live in the LLC, as in the paper's switch).
	// The churn is identical across modes and excluded from the measured
	// classification time.
	pressureBase := p.Alloc.AllocLines(1 << 15) // 2 MB rotating region
	pressureCursor := 0
	pressure := func() {
		for j := 0; j < 32; j++ {
			th.Load(pressureBase + mem.Addr(pressureCursor)*mem.LineSize)
			pressureCursor = (pressureCursor + 1) % (1 << 15)
		}
	}

	warm := classifications / 2
	var classifyCycles uint64
	run := func(n int, measure bool) {
		for i := 0; i < n; i++ {
			key := next()
			t0 := th.Now
			switch mode {
			case ModeSoftware:
				// Single-lookup rte_hash path per tuple, consistent with
				// the Fig. 9 software baseline.
				ts.ClassifyTimed(th, key, cuckoo.LookupOptions{OptimisticLock: true, Prefetch: false})
			case ModeHaloB:
				ts.ClassifyHaloB(th, p.Unit, key)
			case ModeHaloNB:
				ts.ClassifyHaloNB(th, p.Unit, key)
			}
			if measure {
				classifyCycles += uint64(th.Now - t0)
			}
			pressure()
		}
	}
	run(warm, false)
	run(classifications, true)
	collectInto(snap, p, th)
	for _, tp := range ts.Tuples() { // tuple tables bypass Platform.NewTable
		collectInto(snap, tp.Table.Stats())
	}
	return float64(classifyCycles) / float64(classifications)
}

func runFig11TCAM(mode Fig9Mode, space *fig11Space, classifications int, seed uint64, snap *stats.Snapshot) float64 {
	kind := tcam.ClassicTCAM
	if mode == ModeSRAMTCAM {
		kind = tcam.SRAMTCAM
	}
	// A TCAM holds every rule of every tuple in one table; a single
	// search covers all wildcard patterns at once. The rules are read
	// straight from the shared tuple space (reading is all this does with
	// it). A TCAM search touches no simulated memory, so the issuing thread
	// runs on a plain platform.
	tuples := space.ts.Tuples()
	dev := tcam.New(tcam.DefaultConfig(kind, len(tuples)*1024, packet.KeyBytes))
	for _, tp := range tuples {
		installTupleIntoTCAM(dev, tp)
	}
	keys := space.keys
	p := halo.NewPlatform(halo.DefaultPlatformConfig())
	th := newThreadOn(p)
	rng := sim.NewRand(seed ^ 0xfeed)
	start := th.Now
	for i := 0; i < classifications; i++ {
		key := keys[rng.Intn(len(keys))]
		dev.LookupTimed(th, key.Packed())
	}
	collectInto(snap, p, th)
	return float64(th.Now-start) / float64(classifications)
}

// installTupleIntoTCAM converts one tuple's mask and rules into ternary
// entries.
func installTupleIntoTCAM(dev *tcam.Device, tp *classify.Tuple) {
	care := maskCareBytes(tp.Mask)
	// Walk the tuple's table functionally: every bucket entry's key is a
	// masked pattern.
	tbl := tp.Table
	for b := uint64(0); b < tbl.BucketCount(); b++ {
		for _, kv := range tbl.Entries(b) {
			if err := dev.Insert(kv.Key, care, kv.Value); err != nil {
				panic(err)
			}
		}
	}
}

// maskCareBytes renders a classify.Mask as a byte-granular ternary care
// mask over the packed five-tuple.
func maskCareBytes(m classify.Mask) []byte {
	exact := packet.FiveTuple{
		SrcIP: ^uint32(0), DstIP: ^uint32(0),
		SrcPort: ^uint16(0), DstPort: ^uint16(0), Proto: ^uint8(0),
	}
	masked := m.Apply(exact)
	// Fields the mask zeroes in an all-ones tuple are wildcarded.
	care := masked.Packed()
	return care
}
