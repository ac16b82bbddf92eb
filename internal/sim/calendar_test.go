package sim

import (
	"testing"
	"testing/quick"
)

func TestCalendarSerialisesOverlap(t *testing.T) {
	c := NewCalendarResource()
	if got := c.Claim(10, 5); got != 10 {
		t.Fatalf("first claim at %d, want 10", got)
	}
	if got := c.Claim(12, 5); got != 15 {
		t.Fatalf("overlapping claim at %d, want 15", got)
	}
	if got := c.Claim(100, 5); got != 100 {
		t.Fatalf("idle claim at %d, want 100", got)
	}
}

func TestCalendarBackfillsGaps(t *testing.T) {
	c := NewCalendarResource()
	c.Claim(100, 10) // busy [100,110)
	// An out-of-order claim at t=5 fits long before the existing interval
	// — the tail-latch Resource would have pushed it to 110.
	if got := c.Claim(5, 10); got != 5 {
		t.Fatalf("backfill claim at %d, want 5", got)
	}
	// A claim that fits exactly between the two intervals.
	if got := c.Claim(20, 80); got != 20 {
		t.Fatalf("gap claim at %d, want 20", got)
	}
	// Now [5,15) [20,100) [100,110) are busy: a claim at 10 for 6 cycles
	// must wait until 110 (gap [15,20) too small).
	if got := c.Claim(10, 6); got != 110 {
		t.Fatalf("forced-past claim at %d, want 110", got)
	}
}

func TestCalendarZeroOccupancy(t *testing.T) {
	c := NewCalendarResource()
	c.Claim(0, 0) // treated as 1
	if got := c.Claim(0, 1); got != 1 {
		t.Fatalf("claim after zero-occupancy at %d, want 1", got)
	}
}

func TestCalendarHorizonFoldsHistory(t *testing.T) {
	const step, claims = 410, 50 // claims spread over ~5 horizons
	c := NewCalendarResource()
	for i := Cycle(0); i < claims; i++ {
		c.Claim(i*step, 5)
	}
	// History more than a horizon behind the newest claim merged into the
	// floor (the end of the last folded claim): the window keeps only the
	// claims inside the horizon, and claims in the distant past are clamped
	// to the floor rather than backfilled.
	if n := len(c.intervals); n > int(calendarHorizon/step)+2 {
		t.Fatalf("interval window holds %d entries, want history folded", n)
	}
	newest := Cycle((claims - 1) * step)
	if got := c.Claim(0, 5); got < newest-calendarHorizon-step {
		t.Fatalf("ancient claim at %d backfilled beyond the horizon (newest claim at %d)", got, newest)
	}
}

func TestCalendarNoOverlapProperty(t *testing.T) {
	check := func(seed uint64, nRaw uint8) bool {
		rng := NewRand(seed)
		c := NewCalendarResource()
		n := int(nRaw%100) + 2
		type claim struct{ start, end Cycle }
		var claims []claim
		for i := 0; i < n; i++ {
			at := Cycle(rng.Intn(500))
			occ := Cycle(rng.Intn(9) + 1)
			s := c.Claim(at, occ)
			if s < at {
				return false
			}
			claims = append(claims, claim{s, s + occ})
		}
		// No two claims overlap.
		for i := 0; i < len(claims); i++ {
			for j := i + 1; j < len(claims); j++ {
				a, b := claims[i], claims[j]
				if a.start < b.end && b.start < a.end {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// refCalendar is the pre-optimisation reference implementation: linear scan
// in Claim and a full merge/fold pass per claim. The binary-search Claim
// must reproduce its results — start cycles, floor and interval window —
// exactly, including horizon folding behaviour.
type refCalendar struct {
	intervals []interval
	floor     Cycle
}

func (c *refCalendar) claim(at Cycle, occupancy Cycle) (start Cycle) {
	if occupancy == 0 {
		occupancy = 1
	}
	if at < c.floor {
		at = c.floor
	}
	start = at
	idx := len(c.intervals)
	for i, iv := range c.intervals {
		if iv.end <= start {
			continue
		}
		if iv.start >= start+occupancy {
			idx = i
			break
		}
		start = iv.end
		idx = i + 1
	}
	iv := interval{start, start + occupancy}
	c.intervals = append(c.intervals, interval{})
	copy(c.intervals[idx+1:], c.intervals[idx:])
	c.intervals[idx] = iv
	cutoff := Cycle(0)
	if start > calendarHorizon {
		cutoff = start - calendarHorizon
	}
	out := c.intervals[:0]
	for _, iv := range c.intervals {
		if iv.end <= cutoff {
			if iv.end > c.floor {
				c.floor = iv.end
			}
			continue
		}
		if n := len(out); n > 0 && iv.start <= out[n-1].end {
			if iv.end > out[n-1].end {
				out[n-1].end = iv.end
			}
			continue
		}
		out = append(out, iv)
	}
	c.intervals = out
	return start
}

// TestCalendarMatchesReferenceModel drives the optimised calendar and the
// reference side by side over randomized claim streams with deep
// out-of-order windows, including patterns that trigger horizon folding and
// neighbour merging on both sides of an insertion. The first stream reaches
// back less than half a horizon, so its claims backfill; the second reaches
// back two horizons, so many of its claims land below the folded floor.
func TestCalendarMatchesReferenceModel(t *testing.T) {
	for _, depth := range []int{2000, 2 * int(calendarHorizon)} {
		rng := NewRand(0xCA1 + uint64(depth))
		c := NewCalendarResource()
		ref := &refCalendar{}
		base := Cycle(0)
		for i := 0; i < 5000; i++ {
			// A slowly advancing base with a deep out-of-order window behind
			// it: claims land up to depth cycles in the past, and
			// occasionally far in the future.
			base += Cycle(rng.Intn(8))
			at := base
			if back := Cycle(rng.Intn(depth)); back < at {
				at -= back
			} else {
				at = 0
			}
			if rng.Intn(50) == 0 {
				at = base + Cycle(rng.Intn(10000))
			}
			occ := Cycle(rng.Intn(16)) // includes 0 (treated as 1)
			got, want := c.Claim(at, occ), ref.claim(at, occ)
			if got != want {
				t.Fatalf("claim %d (at=%d occ=%d): start %d, reference %d", i, at, occ, got, want)
			}
			if c.floor != ref.floor {
				t.Fatalf("claim %d: floor %d, reference %d", i, c.floor, ref.floor)
			}
			if len(c.intervals) != len(ref.intervals) {
				t.Fatalf("claim %d: %d intervals, reference %d\n%v\n%v",
					i, len(c.intervals), len(ref.intervals), c.intervals, ref.intervals)
			}
			for j := range c.intervals {
				if c.intervals[j] != ref.intervals[j] {
					t.Fatalf("claim %d: interval %d = %v, reference %v", i, j, c.intervals[j], ref.intervals[j])
				}
			}
		}
	}
}

// BenchmarkCalendarClaim measures Claim with a deep out-of-order window:
// sixteen interleaved timelines, each claiming monotonically but spread
// across most of the horizon, the access pattern LLC ports see under the
// worker pool.
func BenchmarkCalendarClaim(b *testing.B) {
	c := NewCalendarResource()
	var lanes [16]Cycle
	for i := range lanes {
		lanes[i] = Cycle(i * 250)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lane := i & 15
		lanes[lane] = c.Claim(lanes[lane]+2, 2) + 2
	}
}
