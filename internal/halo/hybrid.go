package halo

import (
	"halo/internal/cpu"
	"halo/internal/cuckoo"
	"halo/internal/sim"
	"halo/internal/stats"
)

// Mode is the hybrid controller's current execution choice (paper §4.6).
type Mode int

// Execution modes.
const (
	// ModeSoftware runs lookups on the core: fastest when the active flow
	// set fits in the L1 cache.
	ModeSoftware Mode = iota
	// ModeAccel offloads lookups to the HALO accelerators.
	ModeAccel
)

func (m Mode) String() string {
	if m == ModeSoftware {
		return "software"
	}
	return "halo"
}

// softwareThreshold is the active-flow estimate below which lookups run in
// software: the top of the range a linear-counting register of regBits bits
// estimates usefully (~2 × regBits, Fig. 8b), so the threshold and the
// register are sized together. The paper's 32-bit registers give its 64 flows (§6: the
// L1-resident regime).
func softwareThreshold(regBits uint) float64 { return 2 * float64(regBits) }

// HybridConfig tunes the controller.
type HybridConfig struct {
	// WindowCycles is the flow-register scan period.
	WindowCycles sim.Cycle
}

// DefaultHybridConfig matches the paper's evaluation.
func DefaultHybridConfig() HybridConfig {
	return HybridConfig{WindowCycles: 100_000}
}

// Hybrid switches between software and accelerator lookups based on the
// linear-counting flow registers. In accelerator mode the hardware registers
// feed the estimate; in software mode the runtime maintains a mirrored
// 32-bit register (cheap: one hash and an OR per lookup, paper §4.6).
type Hybrid struct {
	cfg  HybridConfig
	unit *Unit
	mode Mode

	softReg *FlowRegister

	// windowStart anchors the current measurement window. It initializes
	// lazily from the first observed cycle (windowStarted): threads rarely
	// start at cycle 0, and anchoring at 0 would close a window full of
	// nothing on the very first lookup and spuriously switch to software.
	windowStart   sim.Cycle
	windowStarted bool
	// windowLookups counts lookups observed since the window opened; a
	// window that closes with zero lookups says nothing about the active
	// flow set and must not flip the mode.
	windowLookups uint64

	switches  uint64
	scans     uint64
	swLookups uint64
	hwLookups uint64
}

// NewHybrid builds a controller over a HALO unit, starting in accelerator
// mode.
func NewHybrid(cfg HybridConfig, unit *Unit) *Hybrid {
	return &Hybrid{
		cfg:     cfg,
		unit:    unit,
		mode:    ModeAccel,
		softReg: NewFlowRegister(unit.cfg.FlowRegBits),
	}
}

// Mode returns the current execution mode.
func (h *Hybrid) Mode() Mode { return h.mode }

// Switches returns how many mode transitions have occurred.
func (h *Hybrid) Switches() uint64 { return h.switches }

// Lookups returns the per-mode lookup counts.
func (h *Hybrid) Lookups() (software, accel uint64) { return h.swLookups, h.hwLookups }

// Scans returns how many measurement windows have closed.
func (h *Hybrid) Scans() uint64 { return h.scans }

// CollectInto adds the controller's counters to a snapshot under the
// hybrid.* names.
func (h *Hybrid) CollectInto(s *stats.Snapshot) {
	s.Add("hybrid.switches", h.switches)
	s.Add("hybrid.scans", h.scans)
	s.Add("hybrid.lookups.software", h.swLookups)
	s.Add("hybrid.lookups.accel", h.hwLookups)
}

// Scan gives the controller a chance to close the measurement window at
// cycle now — the paper's periodic flow-register scan. Every lookup calls
// it implicitly; datapaths with long idle gaps may also call it from a
// timer. A window that observed no lookups keeps the current mode: an
// empty register is indistinguishable from "no traffic", not evidence of a
// small flow set.
func (h *Hybrid) Scan(now sim.Cycle) { h.maybeScan(now) }

// maybeScan closes the measurement window and re-evaluates the mode.
func (h *Hybrid) maybeScan(now sim.Cycle) {
	if !h.windowStarted {
		// First observation anchors the window.
		h.windowStart = now
		h.windowStarted = true
		return
	}
	elapsed := now - h.windowStart
	if elapsed < h.cfg.WindowCycles {
		return
	}
	// Advance by whole windows so the scan cadence does not drift with
	// inter-lookup gaps.
	h.windowStart += elapsed / h.cfg.WindowCycles * h.cfg.WindowCycles
	h.scans++
	observed := h.windowLookups
	h.windowLookups = 0

	var est float64
	if h.mode == ModeAccel {
		est = h.unit.ActiveFlowEstimate()
	} else {
		est = h.softReg.Estimate()
	}
	// Reset BOTH registers at every window close. The inactive register
	// would otherwise carry bits from the last window it was active in,
	// inflating its first post-switch estimate and causing premature
	// switch-back.
	h.unit.ResetFlowWindow()
	h.softReg.Reset()

	if observed == 0 {
		return
	}
	want := ModeAccel
	if est < softwareThreshold(h.unit.cfg.FlowRegBits) {
		want = ModeSoftware
	}
	if want != h.mode {
		h.mode = want
		h.switches++
	}
}

// Lookup performs one flow lookup through whichever engine the controller
// currently selects, charging the thread either way.
func (h *Hybrid) Lookup(th *cpu.Thread, table *cuckoo.Table, key []byte) (v uint64, ok bool) {
	start := th.Now
	h.maybeScan(th.Now)
	h.windowLookups++
	if h.mode == ModeSoftware {
		h.swLookups++
		// Maintain the software-side flow register: hash + mask + OR.
		h.softReg.ObserveKey(key)
		th.ALU(3)
		v, ok = table.TimedLookup(th, key, cuckoo.DefaultLookupOptions())
	} else {
		h.hwLookups++
		v, ok = h.unit.LookupB(th, table.Base(), key)
	}
	th.Record("lat.lookup.hybrid", th.Now-start)
	return v, ok
}
