package mem

import "halo/internal/sim"

// DRAMConfig describes the timing of the simulated DDR4 memory system
// (paper Table 2: 32 GB DDR4-2400). Latencies are in CPU cycles at the
// simulated 2.1 GHz core clock.
type DRAMConfig struct {
	Channels      int
	BanksPerChan  int
	RowBytes      uint64
	RowHitCycles  sim.Cycle // CAS only
	RowMissCycles sim.Cycle // precharge + activate + CAS
	BusCycles     sim.Cycle // data-burst occupancy per 64 B line
}

// DefaultDRAMConfig matches the paper's platform at the fidelity this
// simulator needs: ~165-cycle loaded row-miss latency at 2.1 GHz.
func DefaultDRAMConfig() DRAMConfig {
	return DRAMConfig{
		Channels:      2,
		BanksPerChan:  16,
		RowBytes:      8192,
		RowHitCycles:  60,
		RowMissCycles: 165,
		BusCycles:     4,
	}
}

// DRAMStats aggregates controller activity.
type DRAMStats struct {
	Reads     uint64
	Writes    uint64
	RowHits   uint64
	RowMisses uint64
}

type bank struct {
	openRow uint64
	hasRow  bool
	busy    *sim.CalendarResource
}

// DRAM is the memory-controller timing model. It is purely a timing device:
// data movement happens in the functional Space.
type DRAM struct {
	cfg   DRAMConfig
	banks []bank
	bus   []*sim.CalendarResource // one data bus per channel
	stats DRAMStats
}

// NewDRAM builds a controller with the given configuration.
func NewDRAM(cfg DRAMConfig) *DRAM {
	if cfg.Channels <= 0 || cfg.BanksPerChan <= 0 {
		panic("mem: DRAM needs at least one channel and bank")
	}
	d := &DRAM{
		cfg:   cfg,
		banks: make([]bank, cfg.Channels*cfg.BanksPerChan),
		bus:   make([]*sim.CalendarResource, cfg.Channels),
	}
	for i := range d.banks {
		d.banks[i].busy = sim.NewCalendarResource()
	}
	for i := range d.bus {
		d.bus[i] = sim.NewCalendarResource()
	}
	return d
}

// Stats returns a copy of the accumulated statistics.
func (d *DRAM) Stats() DRAMStats { return d.stats }

func (d *DRAM) route(addr Addr) (bankIdx int, row uint64) {
	line := uint64(addr) / LineSize
	ch := int(line) % d.cfg.Channels
	bk := int(line/uint64(d.cfg.Channels)) % d.cfg.BanksPerChan
	row = uint64(addr) / d.cfg.RowBytes
	return ch*d.cfg.BanksPerChan + bk, row
}

// Access models one line-sized access issued at cycle `at` and returns its
// completion ticket. Write-backs use isWrite=true; they occupy the bank but
// callers typically do not wait on them.
func (d *DRAM) Access(at sim.Cycle, addr Addr, isWrite bool) sim.Ticket {
	bankIdx, row := d.route(addr)
	b := &d.banks[bankIdx]

	latency := d.cfg.RowMissCycles
	if b.hasRow && b.openRow == row {
		latency = d.cfg.RowHitCycles
		d.stats.RowHits++
	} else {
		d.stats.RowMisses++
	}
	b.openRow = row
	b.hasRow = true

	if isWrite {
		d.stats.Writes++
	} else {
		d.stats.Reads++
	}

	// The bank is occupied for the access latency; the channel data bus for
	// the burst. Contention on either delays completion.
	start := b.busy.Claim(at, latency)
	ch := bankIdx / d.cfg.BanksPerChan
	burst := d.bus[ch].Claim(start+latency, d.cfg.BusCycles)
	return sim.Ticket{Issued: at, Done: burst + d.cfg.BusCycles}
}
