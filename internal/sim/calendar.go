package sim

// CalendarResource models a unit that can service one operation at a time.
// It keeps a window of busy intervals rather than a single tail timestamp:
// claims arriving with out-of-order timestamps — the normal case when
// several threads' timelines interleave — are fitted into the earliest idle
// gap at or after their arrival, so a latecomer is delayed only by genuine
// utilisation, never by the mere existence of later claims.
//
// The interval window is bounded: intervals older than the newest claim by
// more than calendarHorizon cycles merge into a floor timestamp, which binds
// only claims arriving even further out of order. Claim binary-searches the
// sorted window for its insertion region, so deep out-of-order arrivals cost
// O(log window) search plus the O(window) copy-insert.
type CalendarResource struct {
	intervals []interval // sorted by start, non-overlapping, non-touching
	floor     Cycle      // claims may not start before this (merged history)
}

type interval struct{ start, end Cycle }

// calendarHorizon is how far behind the newest claim, in cycles, a
// CalendarResource still backfills.
const calendarHorizon Cycle = 4096

// NewCalendarResource builds an idle resource.
func NewCalendarResource() *CalendarResource {
	return &CalendarResource{}
}

// Claim reserves the resource for `occupancy` cycles starting no earlier
// than `at`, and returns the start of the reservation.
func (c *CalendarResource) Claim(at Cycle, occupancy Cycle) (start Cycle) {
	if occupancy == 0 {
		occupancy = 1
	}
	if at < c.floor {
		at = c.floor
	}
	// Intervals are sorted and disjoint, so their ends ascend: binary-search
	// the first interval that can constrain the claim (end > at). Everything
	// before it lies entirely in the past of the claim.
	lo, hi := 0, len(c.intervals)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.intervals[mid].end <= at {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	// Walk forward from there to the earliest gap of `occupancy` cycles.
	start = at
	idx := len(c.intervals)
	for i := lo; i < len(c.intervals); i++ {
		iv := c.intervals[i]
		if iv.start >= start+occupancy {
			// Fits entirely before this interval.
			idx = i
			break
		}
		// Overlaps: push past it.
		start = iv.end
		idx = i + 1
	}
	// Insert the new interval at idx, then merge touching neighbours and
	// fold expired history.
	iv := interval{start, start + occupancy}
	c.intervals = append(c.intervals, interval{})
	copy(c.intervals[idx+1:], c.intervals[idx:])
	c.intervals[idx] = iv
	c.compact(idx, start)
	return start
}

// compact folds history older than calendarHorizon into the floor and merges
// the just-inserted interval (at idx) with touching neighbours. The rest of
// the window is untouched: previous compactions left it strictly disjoint,
// and an insertion can only create adjacency next to idx.
func (c *CalendarResource) compact(idx int, newest Cycle) {
	cutoff := Cycle(0)
	if newest > calendarHorizon {
		cutoff = newest - calendarHorizon
	}
	// Expired intervals form a prefix (ends ascend). The new interval ends
	// after `newest`, so it never folds and idx stays in range.
	k := 0
	for k < len(c.intervals) && c.intervals[k].end <= cutoff {
		k++
	}
	if k > 0 {
		if e := c.intervals[k-1].end; e > c.floor {
			c.floor = e
		}
		c.intervals = c.intervals[:copy(c.intervals, c.intervals[k:])]
		idx -= k
	}
	// Merge left: the predecessor was skipped or pushed past, so it can at
	// most touch (prev.end == start). A fold may have removed it.
	if idx > 0 && c.intervals[idx-1].end >= c.intervals[idx].start {
		c.intervals[idx-1].end = c.intervals[idx].end
		c.intervals = c.intervals[:idx+copy(c.intervals[idx:], c.intervals[idx+1:])]
		idx--
	}
	// Merge right: the successor starts at or after the new end by
	// construction, so again at most touching.
	if idx+1 < len(c.intervals) && c.intervals[idx+1].start <= c.intervals[idx].end {
		if c.intervals[idx+1].end > c.intervals[idx].end {
			c.intervals[idx].end = c.intervals[idx+1].end
		}
		c.intervals = c.intervals[:idx+1+copy(c.intervals[idx+1:], c.intervals[idx+2:])]
	}
}
