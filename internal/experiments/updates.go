package experiments

import (
	"fmt"
	"io"

	"halo/internal/cuckoo"
	"halo/internal/metrics"
	"halo/internal/sim"
	"halo/internal/stats"
	"halo/internal/tcam"
)

// UpdatePoint is one (solution, table size) update-cost measurement.
type UpdatePoint struct {
	Solution       string
	Entries        int
	CyclesPerOp    float64
	UpdatesPerMsec float64
}

// UpdatesResult quantifies the paper's §1 motivation for rejecting TCAMs:
// their updates are "expensive and inflexible" because priority order is
// physical — an insert shifts every lower-priority row — while the cuckoo
// hash updates in near-constant time. It is an extension: the paper states
// the claim with citations rather than a figure.
type UpdatesResult struct {
	Points []UpdatePoint
	Table  *metrics.Table
}

// updatesCell is one (solution, table size) coordinate.
type updatesCell struct {
	solution string
	size     int
}

func updatesCells(cfg Config) []updatesCell {
	sizes := []int{1_000, 10_000, 100_000}
	if cfg.Quick {
		sizes = []int{1_000, 10_000}
	}
	var cells []updatesCell
	for _, size := range sizes {
		cells = append(cells, updatesCell{"cuckoo", size}, updatesCell{"tcam", size})
	}
	return cells
}

// updates is one cell per (solution, table size); a row is cycles per
// update.
var updates = experiment[updatesCell, float64, *UpdatesResult]{
	id:    "updates",
	cells: updatesCells,
	label: func(c updatesCell) string { return fmt.Sprintf("%s/%d-entries", c.solution, c.size) },
	run: func(cfg Config, _ int, c updatesCell, snap *stats.Snapshot) float64 {
		ops := pickSize(cfg, 400, 2000)
		if c.solution == "cuckoo" {
			return runCuckooUpdates(c.size, ops, snap)
		}
		return runTCAMUpdates(c.size, ops, cfg.Seed, snap)
	},
	assemble: assembleUpdates,
	render:   func(r *UpdatesResult, w io.Writer) { r.Table.Render(w) },
}

func assembleUpdates(_ Config, cells []updatesCell, cycles []float64) *UpdatesResult {
	res := &UpdatesResult{
		Table: metrics.NewTable("Updates (extension): rule-update cost, cuckoo vs TCAM",
			"solution", "entries", "cycles/update", "updates/ms @2.1GHz"),
	}
	res.Table.SetCaption("paper §1: TCAM updates are expensive (priority shifting); cuckoo is near-constant")

	for i, cell := range cells {
		c := cycles[i]
		res.Points = append(res.Points, UpdatePoint{
			Solution: cell.solution, Entries: cell.size, CyclesPerOp: c,
			UpdatesPerMsec: ClockGHz * 1e6 / c,
		})
		res.Table.AddRow(cell.solution, cell.size, c, ClockGHz*1e6/c)
	}
	return res
}

// Point fetches a measurement.
func (r *UpdatesResult) Point(solution string, entries int) (UpdatePoint, bool) {
	for _, pt := range r.Points {
		if pt.Solution == solution && pt.Entries == entries {
			return pt, true
		}
	}
	return UpdatePoint{}, false
}

func runCuckooUpdates(size, ops int, snap *stats.Snapshot) float64 {
	f := newLookupFixture(nextPow2(uint64(size)), 0.7)
	th := f.thread
	seq := f.fill
	start := th.Now
	var ib, db [testKeyLen]byte
	for i := 0; i < ops/2; i++ {
		testKeyInto(seq, ib[:])
		_ = f.table.TimedInsert(th, ib[:], seq)
		testKeyInto(uint64(i*13)%f.fill, db[:])
		f.table.TimedDelete(th, db[:])
		seq++
	}
	collectInto(snap, f.p, th)
	return float64(th.Now-start) / float64(ops)
}

func runTCAMUpdates(size, ops int, seed uint64, snap *stats.Snapshot) float64 {
	dev := tcam.New(tcam.DefaultConfig(tcam.ClassicTCAM, size+ops, 16))
	care := make([]byte, 16)
	for i := range care {
		care[i] = 0xFF
	}
	var kb [testKeyLen]byte
	for i := 0; i < size; i++ {
		testKeyInto(uint64(i), kb[:])
		if err := dev.InsertExact(kb[:], uint64(i)); err != nil {
			panic(err)
		}
	}
	f := newLookupFixture(8, 1) // a thread on a plain platform
	th := f.thread
	rng := sim.NewRand(seed ^ 0x0bda7e5)
	seq := uint64(size)
	start := th.Now
	var vb [testKeyLen]byte
	for i := 0; i < ops/2; i++ {
		// Rule updates land at random priority positions.
		pos := rng.Intn(dev.Len() + 1)
		testKeyInto(seq, kb[:])
		if err := dev.InsertTimed(th, pos, kb[:], care, seq); err != nil {
			panic(err)
		}
		testKeyInto(uint64(rng.Intn(size)), vb[:])
		dev.DeleteTimed(th, vb[:], care)
		seq++
	}
	collectInto(snap, f.p, th)
	return float64(th.Now-start) / float64(ops)
}

func nextPow2(v uint64) uint64 {
	p := uint64(8)
	for p < v {
		p <<= 1
	}
	return p
}

var _ = cuckoo.ErrTableFull // the update loop relies on capacity headroom
