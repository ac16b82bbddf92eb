package noc

import (
	"halo/internal/hashfn"
	"halo/internal/sim"
	"halo/internal/stats"
)

// SliceHash maps a cache-line address to its home LLC slice. Real CPUs use an
// undocumented XOR-tree over the physical address for exactly this purpose;
// a hash of the line address reproduces the uniform distribution.
func SliceHash(lineAddr uint64, slices int) int {
	return int(hashfn.Hash64(hashfn.SeedPrimary, lineAddr) % uint64(slices))
}

// QueryDistributor is the HALO component in the interconnect that dispatches
// lookup queries to per-slice accelerators (paper §4.3). Queries hash on the
// *table address*, so consecutive lookups against the same table land on the
// same accelerator and hit its metadata cache, while different tables spread
// across accelerators. An accelerator saturated with on-the-fly queries sets
// a busy bit; the distributor then diverts new queries to the nearest
// non-busy accelerator.
type QueryDistributor struct {
	ring   *Ring
	busy   []bool
	stats  DistributorStats
	policy DispatchPolicy
}

// DispatchPolicy selects how queries map to accelerators.
type DispatchPolicy int

const (
	// DispatchByTable is the paper's policy: hash the table address.
	DispatchByTable DispatchPolicy = iota
	// DispatchByKeyLine hashes the key's cache line instead (ablation).
	DispatchByKeyLine
	// DispatchRoundRobin ignores addresses entirely (ablation).
	DispatchRoundRobin
)

// DistributorStats counts dispatch outcomes.
type DistributorStats struct {
	Dispatched uint64
	Diverted   uint64 // sent somewhere other than the hashed slice (busy)
}

// NewQueryDistributor builds a distributor over the ring's slices.
func NewQueryDistributor(ring *Ring, policy DispatchPolicy) *QueryDistributor {
	return &QueryDistributor{
		ring:   ring,
		busy:   make([]bool, ring.Stops()),
		policy: policy,
	}
}

// SetBusy sets or clears an accelerator's busy bit.
func (d *QueryDistributor) SetBusy(slice int, busy bool) { d.busy[slice] = busy }

// Stats returns a copy of the dispatch statistics.
func (d *QueryDistributor) Stats() DistributorStats { return d.stats }

// CollectInto adds the distributor's counters to a snapshot under the
// noc.dispatch.* names.
func (d *QueryDistributor) CollectInto(s *stats.Snapshot) {
	s.Add("noc.dispatch.dispatched", d.stats.Dispatched)
	s.Add("noc.dispatch.diverted", d.stats.Diverted)
}

// Target returns the accelerator slice for a query and the extra latency to
// reach it from the issuing core's ring stop.
func (d *QueryDistributor) Target(core int, tableAddr, keyAddr uint64) (slice int, delay sim.Cycle) {
	n := d.ring.Stops()
	switch d.policy {
	case DispatchByKeyLine:
		slice = SliceHash(keyAddr/64*64, n)
	case DispatchRoundRobin:
		slice = int(d.stats.Dispatched % uint64(n))
	default:
		slice = SliceHash(tableAddr, n)
	}
	d.stats.Dispatched++
	if d.busy[slice] {
		// Divert to the nearest non-busy accelerator, scanning outward.
		for dist := 1; dist < n; dist++ {
			right := (slice + dist) % n
			if !d.busy[right] {
				slice = right
				d.stats.Diverted++
				break
			}
			left := (slice - dist + n) % n
			if !d.busy[left] {
				slice = left
				d.stats.Diverted++
				break
			}
		}
		// All busy: fall through to the hashed slice and queue there.
	}
	return slice, d.ring.Delay(core, slice)
}
