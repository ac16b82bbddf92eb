// Package noc models the on-chip interconnect of the simulated CPU: a
// bidirectional ring connecting cores, LLC slices / CHAs, and the memory
// controllers, plus the HALO query distributor that routes lookup queries to
// per-slice accelerators.
package noc

import "halo/internal/sim"

// RingConfig describes the interconnect. Cores and LLC slices alternate as
// ring stops (as on Skylake-SP); the distance between stop i and stop j is
// the shorter way around the ring.
type RingConfig struct {
	Stops       int       // number of ring stops (== cores == slices)
	HopCycles   sim.Cycle // latency per hop
	InjectDelay sim.Cycle // fixed cost to get on/off the ring
}

// DefaultRingConfig matches the 16-core platform of paper Table 2.
func DefaultRingConfig() RingConfig {
	return RingConfig{Stops: 16, HopCycles: 2, InjectDelay: 3}
}

// Ring is the interconnect timing model.
type Ring struct {
	cfg RingConfig
}

// NewRing builds a ring with the given configuration.
func NewRing(cfg RingConfig) *Ring {
	if cfg.Stops <= 0 {
		panic("noc: ring needs at least one stop")
	}
	return &Ring{cfg: cfg}
}

// Stops returns the number of ring stops.
func (r *Ring) Stops() int { return r.cfg.Stops }

// Hops returns the hop count between two stops, the shorter way around.
func (r *Ring) Hops(from, to int) int {
	d := from - to
	if d < 0 {
		d = -d
	}
	if alt := r.cfg.Stops - d; alt < d {
		d = alt
	}
	return d
}

// Delay returns the one-way message latency between two ring stops. A
// message to the local stop still pays the inject/eject cost.
func (r *Ring) Delay(from, to int) sim.Cycle {
	if from == to {
		return r.cfg.InjectDelay
	}
	return r.cfg.InjectDelay + sim.Cycle(r.Hops(from, to))*r.cfg.HopCycles
}
