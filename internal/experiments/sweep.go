package experiments

import (
	"io"

	"halo/internal/stats"
)

// Point is one independently runnable unit of an experiment's sweep. A
// point carries only coordinates — the owning experiment's ID, its position
// in the sweep, and a human-readable label — so it is trivially cheap to
// enumerate and can be handed to any goroutine (or, in principle, any
// process) for execution.
type Point struct {
	Experiment string
	Index      int
	Label      string
}

// Sweep decomposes an experiment into points that can run concurrently.
//
// The contract that makes fan-out safe:
//
//   - RunPoint builds every piece of state it needs from cfg and p alone —
//     a fresh platform per point, mirroring the paper's separate gem5 runs
//     — and touches no package-level mutable state. A point may clone a
//     fixture it built, so two of its runs start from one fill and warm-up
//     (lookupFixture.clone), but nothing crosses points: a fixture and its
//     clones are dropped by the point that built them. The runner executes
//     points on arbitrary goroutines in arbitrary order.
//   - RunPoint is deterministic: the same (cfg, p) always returns the same
//     row. All randomness must flow from seeds derived from cfg.Seed and
//     the point's coordinates.
//   - Rows are plain values (structs of scalars, or slices of such
//     structs) with no pointers, so two rows are equal exactly when their
//     %#v renderings are byte-identical — which is how the runner's verify
//     mode checks the determinism contract.
//   - Render receives one row per point, in Points order, regardless of
//     the order in which the points actually ran.
type Sweep struct {
	// Points enumerates the sweep for cfg, in result order.
	Points func(cfg Config) []Point
	// RunPoint executes one point on fresh state and returns its row.
	RunPoint func(cfg Config, p Point) any
	// Render combines the rows (in Points order) into printed tables.
	Render func(cfg Config, rows []any, w io.Writer)
}

// experiment is the typed description every registry entry is built from.
// A sweep is a list of cells C — the coordinates of the paper's independent
// gem5 runs — each run on fresh state to a row R; assemble zips the cells
// with their rows into the result Res. Cells may carry funcs (a knob
// setting is most simply the closure that applies it); rows are plain
// values, because they cross goroutines, are compared by the runner's
// verify mode and are marshalled into the stats document.
type experiment[C, R, Res any] struct {
	id string
	// cells enumerates the sweep for cfg, in result order.
	cells func(cfg Config) []C
	// label names a cell; unique within the experiment.
	label func(c C) string
	// run measures cell i. It collects component stats into snap, which is
	// nil when nobody asked for them (collectInto accepts that).
	run func(cfg Config, i int, c C, snap *stats.Snapshot) R
	// assemble receives rows[i] for cells[i].
	assemble func(cfg Config, cells []C, rows []R) Res
	render   func(res Res, w io.Writer)
}

// sweep derives the untyped decomposition the runner consumes. It is the
// one place that stamps a Point, files a point's snapshot with cfg.Stats
// and recovers the typed rows.
func (e experiment[C, R, Res]) sweep() Sweep {
	return Sweep{
		Points: func(cfg Config) []Point {
			cells := e.cells(cfg)
			pts := make([]Point, len(cells))
			for i, c := range cells {
				pts[i] = Point{Experiment: e.id, Index: i, Label: e.label(c)}
			}
			return pts
		},
		RunPoint: func(cfg Config, p Point) any {
			snap := pointSnapshot(cfg)
			row := e.run(cfg, p.Index, e.cells(cfg)[p.Index], snap)
			recordSnap(cfg, p, snap)
			return row
		},
		Render: func(cfg Config, rows []any, w io.Writer) {
			e.render(e.fromRows(cfg, rows), w)
		},
	}
}

// fromRows assembles the runner's untyped rows (one per cell, in cell
// order): the one type assertion on a row in the package.
func (e experiment[C, R, Res]) fromRows(cfg Config, rows []any) Res {
	typed := make([]R, len(rows))
	for i, r := range rows {
		typed[i] = r.(R)
	}
	return e.assemble(cfg, e.cells(cfg), typed)
}

// result runs every cell serially and assembles the rows: the body of
// every exported RunX.
func (e experiment[C, R, Res]) result(cfg Config) Res {
	return e.fromRows(cfg, runSerial(cfg, e.sweep()))
}

// runner registers the experiment under the paper artefact it regenerates.
func (e experiment[C, R, Res]) runner(paper string) Runner {
	return Runner{ID: e.id, Paper: paper, Sweep: e.sweep()}
}

// itself labels a cell that is nothing but its name.
func itself(name string) string { return name }

// runSerial executes every point of s in order on the calling goroutine —
// the serial baseline the parallel runner is verified against.
func runSerial(cfg Config, s Sweep) []any {
	pts := s.Points(cfg)
	rows := make([]any, len(pts))
	for i, p := range pts {
		rows[i] = s.RunPoint(cfg, p)
	}
	return rows
}

// pointSeed derives a per-point workload seed from the experiment seed and
// the point's coordinates, so points that need private randomness stay
// deterministic and independent of sweep order.
func pointSeed(cfg Config, index int) uint64 {
	x := cfg.Seed ^ (uint64(index)+1)*0x9e3779b97f4a7c15
	x ^= x >> 32
	x *= 0xd6e8feb86659fd93
	x ^= x >> 32
	return x
}
