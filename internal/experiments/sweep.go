package experiments

import (
	"io"

	"halo/internal/stats"
)

// Point is one independently runnable unit of an experiment's sweep. A
// point carries only coordinates — its position in the sweep and a
// human-readable label — so it is trivially cheap to enumerate and can be
// handed to any goroutine (or, in principle, any process) for execution.
type Point struct {
	Index int
	Label string
}

// Sweep decomposes an experiment into points that can run concurrently.
//
// The contract that makes fan-out safe:
//
//   - RunPoint builds every piece of state it needs from cfg and p alone —
//     a platform of its own per point, mirroring the paper's separate gem5
//     runs — and touches no package-level mutable state. The one thing
//     that crosses points is a read-only prototype: a set-up several points
//     of one run start from (a warmed lookup fixture, Fig. 11's tuple space,
//     a Fig. 13 NF table), built once per run by the first point that asks
//     (shared). A point gets it only as a Platform.Clone, nothing runs on or
//     writes the prototype itself, and the run drops it when its last point
//     finishes. The runner executes points on arbitrary goroutines in
//     arbitrary order.
//   - RunPoint is deterministic: the same (cfg, p) always returns the same
//     row and the same snapshot. All randomness must flow from seeds
//     derived from cfg.Seed and the point's coordinates, and a clone of a
//     prototype runs exactly as a fresh build of it would.
//   - Rows are plain values (structs of scalars, or slices of such
//     structs) with no pointers, so two rows are equal exactly when their
//     %#v renderings are byte-identical — which is how the runner's verify
//     mode checks the determinism contract.
//   - Render receives one row per point, in Points order, regardless of
//     the order in which the points actually ran.
type Sweep struct {
	// Points enumerates the sweep for cfg, in result order.
	Points func(cfg Config) []Point
	// RunPoint executes one point on fresh state and returns its row and
	// the component stats it collected (counters and latency histograms
	// under the stable dotted names of internal/stats), or a nil snapshot
	// when the point collected none. Collecting never influences the
	// simulation.
	RunPoint func(cfg Config, p Point) (row any, snap *stats.Snapshot)
	// Render combines the rows (in Points order) into printed tables.
	Render func(cfg Config, rows []any, w io.Writer)

	protos *prototypes // the prototypes RunPoint's points share
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
	// run measures cell i and collects its component stats into snap,
	// always a fresh snapshot. A run passes collectInto a nil snapshot only
	// for an arm that should stay out of the point's stats.
	run func(cfg Config, i int, c C, snap *stats.Snapshot) R
	// assemble receives rows[i] for cells[i].
	assemble func(cfg Config, cells []C, rows []R) Res
	render   func(res Res, w io.Writer)
}

// sweep derives the untyped decomposition the runner consumes. It is the
// one place that stamps a Point, gives a point its snapshot, hands a point
// its run's prototypes and recovers the typed rows.
func (e experiment[C, R, Res]) sweep() Sweep {
	protos := &prototypes{}
	return Sweep{
		protos: protos,
		Points: func(cfg Config) []Point {
			cells := e.cells(cfg)
			pts := make([]Point, len(cells))
			for i, c := range cells {
				pts[i] = Point{Index: i, Label: e.label(c)}
			}
			return pts
		},
		RunPoint: func(cfg Config, p Point) (any, *stats.Snapshot) {
			cells := e.cells(cfg)
			defer protos.finish(len(cells))
			cfg.protos = protos
			snap := stats.NewSnapshot()
			row := e.run(cfg, p.Index, cells[p.Index], snap)
			if snap.Empty() {
				snap = nil
			}
			return row, snap
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
		rows[i], _ = s.RunPoint(cfg, p)
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
