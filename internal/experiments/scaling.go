package experiments

import (
	"fmt"
	"io"

	"halo/internal/cpu"
	"halo/internal/cuckoo"
	"halo/internal/halo"
	"halo/internal/mem"
	"halo/internal/metrics"
	"halo/internal/stats"
)

// ScalingPoint is one (mode, core count) aggregate-throughput measurement.
type ScalingPoint struct {
	Mode        Fig9Mode
	Cores       int
	LookupsPerK float64 // aggregate lookups per 1000 cycles
	Efficiency  float64 // throughput / (cores × single-core throughput)
}

// ScalingResult is an extension beyond the paper's figures: aggregate
// lookup throughput against one shared flow table as PMD threads are added,
// with a concurrent updater thread churning rules. It quantifies the §3.4
// claim that software locking and core-to-core communication limit
// scalability while HALO's hardware lock does not.
type ScalingResult struct {
	Points []ScalingPoint
	Table  *metrics.Table
}

// scalingCell is one (mode, core count) coordinate.
type scalingCell struct {
	mode  Fig9Mode
	cores int
}

func scalingCoreCounts(cfg Config) []int {
	if cfg.Quick {
		return []int{1, 4, 15}
	}
	return []int{1, 2, 4, 8, 15}
}

func scalingCells(cfg Config) []scalingCell {
	var cells []scalingCell
	for _, mode := range []Fig9Mode{ModeSoftware, ModeHaloB, ModeHaloNB} {
		for _, n := range scalingCoreCounts(cfg) {
			cells = append(cells, scalingCell{mode, n})
		}
	}
	return cells
}

// scaling is one cell per (mode, core count); each simulates its own
// lockstep multi-thread run. A row is aggregate lookups per cycle.
var scaling = experiment[scalingCell, float64, *ScalingResult]{
	id:    "scaling",
	cells: scalingCells,
	label: func(c scalingCell) string { return fmt.Sprintf("%s/%d-cores", c.mode, c.cores) },
	run: func(cfg Config, _ int, c scalingCell, snap *stats.Snapshot) float64 {
		return runScalingPoint(cfg, c.mode, c.cores, pickSize(cfg, 300, 1500), snap)
	},
	assemble: assembleScaling,
	render:   func(r *ScalingResult, w io.Writer) { r.Table.Render(w) },
}

func assembleScaling(_ Config, cells []scalingCell, tputs []float64) *ScalingResult {
	res := &ScalingResult{
		Table: metrics.NewTable("Scaling (extension): shared-table lookup throughput vs cores",
			"mode", "cores", "lookups/kcycle", "efficiency"),
	}
	res.Table.SetCaption("one updater thread churns the table; core 15 is reserved for it")

	var single float64 // the mode's one-core throughput; every mode's sweep opens with it
	for i, c := range cells {
		if c.cores == 1 {
			single = tputs[i]
		}
		pt := ScalingPoint{
			Mode: c.mode, Cores: c.cores,
			LookupsPerK: tputs[i] * 1000,
			Efficiency:  tputs[i] / (float64(c.cores) * single),
		}
		res.Points = append(res.Points, pt)
		res.Table.AddRow(string(c.mode), c.cores, pt.LookupsPerK, fmt.Sprintf("%.2f", pt.Efficiency))
	}
	return res
}

// Point fetches a measurement.
func (r *ScalingResult) Point(mode Fig9Mode, cores int) (ScalingPoint, bool) {
	for _, pt := range r.Points {
		if pt.Mode == mode && pt.Cores == cores {
			return pt, true
		}
	}
	return ScalingPoint{}, false
}

// runScalingPoint runs n lookup threads plus one updater in lockstep rounds
// and returns aggregate lookups per cycle.
func runScalingPoint(cfg Config, mode Fig9Mode, n, rounds int, snap *stats.Snapshot) float64 {
	f := sharedFixture(cfg, 1<<15, 0.60)
	p := f.p
	threads := make([]*cpu.Thread, n)
	for i := range threads {
		threads[i] = cpu.NewThread(p.Hier, i)
	}
	updater := cpu.NewThread(p.Hier, 15)
	writeSeq := f.fill

	// Per-thread key buffers for the HALO path (packet-buffer style).
	keyBufs := make([]mem.Addr, n)
	for i := range keyBufs {
		keyBufs[i] = p.Alloc.AllocLines(8)
	}
	var sb [testKeyLen]byte
	stage := func(ti int, slot int, k uint64) mem.Addr {
		addr := keyBufs[ti] + mem.Addr(slot)*mem.LineSize
		testKeyInto(k%f.fill, sb[:])
		p.Space.WriteAt(addr, sb[:])
		p.Hier.DMAWrite(addr)
		return addr
	}

	const batch = 8
	opts := cuckoo.LookupOptions{OptimisticLock: true, Prefetch: false}
	lookupsPerRound := n * batch

	sync := func() {
		max := updater.Now
		for _, th := range threads {
			if th.Now > max {
				max = th.Now
			}
		}
		updater.WaitUntil(max)
		for _, th := range threads {
			th.WaitUntil(max)
		}
	}

	// Warm rounds, then measured rounds. Threads run in lockstep: a round's
	// duration is the slowest thread's, which is what wall-clock parallel
	// execution would show.
	var kb, wb [testKeyLen]byte
	qs := make([]halo.NBQuery, batch)
	rs := make([]halo.NBResult, batch)
	run := func(nr int, base uint64) {
		for r := 0; r < nr; r++ {
			for ti, th := range threads {
				k := base + uint64(r*lookupsPerRound+ti*batch)
				switch mode {
				case ModeSoftware:
					for j := 0; j < batch; j++ {
						testKeyInto((k+uint64(j))*13%f.fill, kb[:])
						f.table.TimedLookup(th, kb[:], opts)
					}
				case ModeHaloB:
					for j := 0; j < batch; j++ {
						p.Unit.LookupBAt(th, f.table.Base(), stage(ti, 0, (k+uint64(j))*13))
					}
				default:
					for j := 0; j < batch; j++ {
						qs[j] = halo.NBQuery{
							TableAddr: f.table.Base(),
							KeyAddr:   stage(ti, j, (k+uint64(j))*13),
						}
					}
					p.Unit.LookupManyNBInto(th, qs, rs)
				}
			}
			// The updater inserts one rule per round (rule churn).
			testKeyInto(writeSeq, wb[:])
			_ = f.table.TimedInsert(updater, wb[:], writeSeq)
			writeSeq++
			sync()
		}
	}
	run(rounds/4, 7)
	start := threads[0].Now
	run(rounds, 0)
	collectInto(snap, p, updater)
	for _, th := range threads {
		collectInto(snap, th)
	}
	elapsed := float64(threads[0].Now - start)
	return float64(rounds*lookupsPerRound) / elapsed
}
