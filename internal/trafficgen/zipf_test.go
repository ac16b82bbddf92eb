package trafficgen

import (
	"math"
	"testing"
)

// referenceRank is the Zipf draw's search before the guide table: a binary
// search of the whole CDF for the first rank that reaches x.
func referenceRank(cdf []float64, x float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// The guide table must change no draw: every stream and workload sequence
// and every bucket edge return the rank the full search returns, and a draw
// allocates nothing.
func TestZipfDrawsMatchFullSearch(t *testing.T) {
	t.Run("sequences-and-edges", testZipfSequencesAndEdges)
	t.Run("no-allocs", testStreamNextFlowAllocsNothing)
}

func testZipfSequencesAndEdges(t *testing.T) {
	for _, n := range []int{1, 2, 3, 17, 4000, 100_000, 200_000, 1_050_000} {
		draws := 170_000 // per sequence: 1.02M per size over two sequences and three seeds
		if n > 200_000 {
			draws = 50_000
		}
		var w *Workload
		for seed := uint64(1); seed <= 3; seed++ {
			w = Generate(Scenario{Name: "zipf", Flows: n, Rules: 1, Popularity: Zipf}, seed)
			// A copy of each RNG replays its Float64s through the reference.
			own := *w.draws.rng
			s := w.NewStream(seed + 100)
			str := *s.rng
			for i := 0; i < draws; i++ {
				if got, want := w.NextFlow(), w.perm[referenceRank(w.cdf, own.Float64())]; got != want {
					t.Fatalf("n=%d seed %d: Workload.NextFlow draw %d is flow %d, reference %d", n, seed, i, got, want)
				}
				if got, want := s.NextFlow(), w.perm[referenceRank(w.cdf, str.Float64())]; got != want {
					t.Fatalf("n=%d seed %d: Stream.NextFlow draw %d is flow %d, reference %d", n, seed, i, got, want)
				}
			}
		}

		// The CDF depends only on n, so one workload covers the edges: every
		// bucket edge and every CDF value, each with both float neighbours.
		xs := []float64{0, math.Nextafter(1, 0)}
		for k := 0; k <= n; k++ {
			e := float64(k) / float64(n)
			xs = append(xs, math.Nextafter(e, -1), e, math.Nextafter(e, 2))
		}
		for _, c := range w.cdf {
			xs = append(xs, math.Nextafter(c, -1), c, math.Nextafter(c, 2))
		}
		for _, x := range xs {
			if x < 0 || x >= 1 {
				continue
			}
			if got, want := w.rank(x), referenceRank(w.cdf, x); got != want {
				t.Fatalf("n=%d: rank(%v) = %d, reference %d", n, x, got, want)
			}
		}
	}
}

func testStreamNextFlowAllocsNothing(t *testing.T) {
	for _, pop := range []Popularity{Uniform, Zipf} {
		s := Generate(Scenario{Name: "x", Flows: 1000, Rules: 1, Popularity: pop}, 5).NewStream(6)
		if allocs := testing.AllocsPerRun(1000, func() { sinkFlow = s.NextFlow() }); allocs != 0 {
			t.Fatalf("popularity %d: Stream.NextFlow allocates %.1f times per draw", pop, allocs)
		}
	}
}
