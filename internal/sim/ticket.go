// Package sim holds the simulator's notion of time: the Cycle, the Ticket a
// timed operation returns, the CalendarResource through which a shared unit
// serialises its users, and the seeded Rand behind every stochastic choice.
//
// Time is explicit, not event-driven. Every component — caches, DRAM, the
// on-chip interconnect, CPU cores, the HALO accelerators — takes the cycle
// `at` at which an operation arrives and returns the cycle at which it
// finishes; there is no event queue and no global clock to advance. A unit
// that several timelines share (an LLC port, a DRAM bank, a hash unit) is a
// CalendarResource, which fits each claim into the earliest idle gap at or
// after its arrival. Nothing here reads wall time or global random state, so
// the same inputs always produce the same cycle counts.
package sim

// Cycle is a point in simulated time, measured in CPU clock cycles.
type Cycle uint64

// Ticket is a completion token for a multi-cycle operation: a component
// returns a Ticket whose Done cycle tells the caller when the result is
// available.
type Ticket struct {
	Issued Cycle
	Done   Cycle
}

// Latency returns the number of cycles between issue and completion.
func (t Ticket) Latency() Cycle { return t.Done - t.Issued }
