// Package tcam models the ternary content-addressable memory baselines of
// the paper's evaluation (§5.1): a classic TCAM that searches its whole rule
// set in parallel in a few cycles, and the SRAM-based TCAM emulation of
// Z-TCAM-style designs, which trades a slightly deeper pipeline for much
// lower power.
//
// Functionally, both store ternary entries (value + care mask over a fixed
// key width) with index-order priority: the lowest-indexed matching entry
// wins, as in real packet-classification TCAMs.
package tcam

import (
	"bytes"
	"errors"
	"fmt"
	"math"

	"halo/internal/cpu"
	"halo/internal/hashfn"
	"halo/internal/sim"
)

// Kind distinguishes the two hardware baselines.
type Kind int

// TCAM variants.
const (
	ClassicTCAM Kind = iota
	SRAMTCAM
)

func (k Kind) String() string {
	if k == ClassicTCAM {
		return "TCAM"
	}
	return "SRAM-TCAM"
}

// Config sizes a device.
type Config struct {
	Kind     Kind
	Capacity int // entries
	KeyBytes int
	// LookupLatency is the fixed search latency in CPU cycles. Classic
	// TCAMs answer in a few cycles; SRAM emulations pipeline a bit deeper.
	LookupLatency sim.Cycle
	// CommandCycles is the uncore round trip to deliver the key and fetch
	// the result from a CPU-integrated device: even a one-cycle match
	// array sits behind the on-chip fabric.
	CommandCycles sim.Cycle
}

// DefaultConfig returns the paper's device parameters for a kind.
func DefaultConfig(kind Kind, capacity, keyBytes int) Config {
	lat := sim.Cycle(3)
	if kind == SRAMTCAM {
		lat = 6
	}
	return Config{Kind: kind, Capacity: capacity, KeyBytes: keyBytes, LookupLatency: lat, CommandCycles: 28}
}

// Device is one TCAM instance. Entries sit in priority order, index 0 first.
// Entry i's value (already masked by its care bits) and care mask are the two
// halves of the 2·KeyBytes row at rows[2·KeyBytes·i:], and its result is
// data[i]; one arena holds every row, so an entry costs no allocation.
type Device struct {
	cfg     Config
	rows    []byte
	data    []uint64
	queries uint64
	hits    uint64

	// The search index: per distinct care mask, the lowest entry index
	// holding each masked value. An append keeps it current; anything that
	// shifts indices marks it stale, and the next Lookup rebuilds it.
	masks  []maskIndex
	byMask map[string]int
	stale  bool

	ones    []byte // an all-ones care mask, for InsertExact
	scratch []byte // one row: a masked key, or the row Delete looks for
}

// maskIndex is an open-addressed set of the entries with one care mask,
// keyed by value and probed linearly.
type maskIndex struct {
	care  []byte
	slots []int32 // entry index + 1; 0 is an empty slot
	n     int
}

// Errors.
var (
	ErrFull   = errors.New("tcam: capacity exhausted")
	ErrKeyLen = errors.New("tcam: key length mismatch")
)

// New builds an empty device.
func New(cfg Config) *Device {
	if cfg.Capacity <= 0 || cfg.Capacity >= math.MaxInt32 || cfg.KeyBytes <= 0 {
		panic(fmt.Sprintf("tcam: bad config %+v", cfg))
	}
	ones := make([]byte, cfg.KeyBytes)
	for i := range ones {
		ones[i] = 0xFF
	}
	return &Device{cfg: cfg, byMask: make(map[string]int), ones: ones, scratch: make([]byte, 2*cfg.KeyBytes)}
}

// Len returns the number of installed entries.
func (d *Device) Len() int { return len(d.data) }

// Queries returns the number of searches performed (for energy accounting).
func (d *Device) Queries() uint64 { return d.queries }

// HitRate returns the fraction of searches that matched.
func (d *Device) HitRate() float64 {
	if d.queries == 0 {
		return 0
	}
	return float64(d.hits) / float64(d.queries)
}

// row returns entry i's stored value and care mask.
func (d *Device) row(i int) (value, care []byte) {
	k := d.cfg.KeyBytes
	r := d.rows[2*k*i : 2*k*(i+1)]
	return r[:k], r[k:]
}

// Insert appends an entry at the lowest free priority. Value bytes outside
// the care mask are canonicalised to zero.
func (d *Device) Insert(value, care []byte, data uint64) error {
	if len(value) != d.cfg.KeyBytes || len(care) != d.cfg.KeyBytes {
		return ErrKeyLen
	}
	if len(d.data) >= d.cfg.Capacity {
		return ErrFull
	}
	d.rows = append(append(d.rows, value...), care...)
	v, _ := d.row(len(d.data))
	for i := range v {
		v[i] &= care[i]
	}
	d.data = append(d.data, data)
	if !d.stale {
		d.index(len(d.data) - 1)
	}
	return nil
}

// InsertExact installs a fully specified (no wildcard) entry.
func (d *Device) InsertExact(key []byte, data uint64) error {
	return d.Insert(key, d.ones, data)
}

// Lookup searches all entries in parallel; the lowest-indexed match wins.
// The model gets the same answer from its index: an entry matches key
// exactly when its value equals key masked by its care bits, so each
// distinct mask is one exact probe, and the smallest index found wins.
func (d *Device) Lookup(key []byte) (data uint64, ok bool) {
	d.queries++
	if len(key) != d.cfg.KeyBytes {
		return 0, false
	}
	if d.stale {
		d.rebuild()
	}
	masked := d.scratch[:len(key)]
	best := int32(0) // entry index + 1, as in the slots
	for g := range d.masks {
		m := &d.masks[g]
		for j := range key {
			masked[j] = key[j] & m.care[j]
		}
		if e := m.slots[d.probe(m, masked)]; e != 0 && (best == 0 || e < best) {
			best = e
		}
	}
	if best == 0 {
		return 0, false
	}
	d.hits++
	return d.data[best-1], true
}

// probe returns the slot of m that holds the entry storing value, or the
// empty slot where it would go.
func (d *Device) probe(m *maskIndex, value []byte) int {
	mask := len(m.slots) - 1
	s := int(hashfn.Hash(hashfn.SeedPrimary, value)) & mask
	for {
		e := m.slots[s]
		if e == 0 {
			return s
		}
		if v, _ := d.row(int(e - 1)); bytes.Equal(v, value) {
			return s
		}
		s = (s + 1) & mask
	}
}

// index adds entry i to its mask's set unless a lower index already holds
// the same value, which then keeps priority.
func (d *Device) index(i int) {
	value, care := d.row(i)
	g, ok := d.byMask[string(care)]
	if !ok {
		g = len(d.masks)
		d.masks = append(d.masks, maskIndex{care: append([]byte(nil), care...)})
		d.byMask[string(care)] = g
	}
	m := &d.masks[g]
	if 2*(m.n+1) > len(m.slots) {
		d.grow(m)
	}
	if s := d.probe(m, value); m.slots[s] == 0 {
		m.slots[s] = int32(i + 1)
		m.n++
	}
}

// grow doubles m's slot array, keeping it at most half full.
func (d *Device) grow(m *maskIndex) {
	old := m.slots
	m.slots = make([]int32, max(16, 2*len(old)))
	for _, e := range old {
		if e != 0 {
			v, _ := d.row(int(e - 1))
			m.slots[d.probe(m, v)] = e
		}
	}
}

// rebuild indexes every entry afresh, in priority order.
func (d *Device) rebuild() {
	d.masks = d.masks[:0]
	clear(d.byMask)
	d.stale = false
	for i := range d.data {
		d.index(i)
	}
}

// LookupTimed performs a search charging the issuing thread: one command
// instruction plus the device's fixed pipeline latency. TCAM throughput is
// pipelined, so back-to-back searches from one thread are limited by issue
// rate, not latency; the issue cost models the MMIO-mapped command.
func (d *Device) LookupTimed(th *cpu.Thread, key []byte) (uint64, bool) {
	th.Other(1)
	th.ALU(1)
	data, ok := d.Lookup(key)
	th.WaitUntil(th.Now + d.cfg.CommandCycles + d.cfg.LookupLatency)
	return data, ok
}

// Delete removes the first entry exactly matching (value, care) and returns
// whether one was removed. TCAM deletion shifts priorities — the expensive
// update behaviour the paper criticises (§1) — so it costs O(n) here too.
// A value or care of the wrong length matches no entry.
func (d *Device) Delete(value, care []byte) bool {
	i := d.entryOf(value, care)
	if i < 0 {
		return false
	}
	d.remove(i)
	return true
}

// entryOf returns the index of the first entry stored as (value, care), or
// -1 if there is none or either has the wrong length.
func (d *Device) entryOf(value, care []byte) int {
	k := d.cfg.KeyBytes
	if len(value) != k || len(care) != k {
		return -1
	}
	want := d.scratch
	for j := range value {
		want[j] = value[j] & care[j]
	}
	copy(want[k:], care)
	for i := range d.data {
		if bytes.Equal(d.rows[2*k*i:2*k*(i+1)], want) {
			return i
		}
	}
	return -1
}

// remove deletes entry i, shifting every later entry up one index.
func (d *Device) remove(i int) {
	w := 2 * d.cfg.KeyBytes
	d.rows = append(d.rows[:w*i], d.rows[w*(i+1):]...)
	d.data = append(d.data[:i], d.data[i+1:]...)
	d.stale = true
}

// Update-cost model (paper §1: TCAM updates are "expensive and inflexible").
// Inserting at a priority position shifts every lower-priority entry down
// one slot to keep index order; deleting shifts them back up. Each shifted
// entry costs a read-modify-write of its ternary row.
const shiftCyclesPerEntry = 2

// InsertTimed installs an entry at priority position pos (entries at pos and
// below shift down), charging the issuing thread the shift cost.
func (d *Device) InsertTimed(th *cpu.Thread, pos int, value, care []byte, data uint64) error {
	n := len(d.data)
	if n >= d.cfg.Capacity {
		return ErrFull
	}
	if pos < 0 || pos > n {
		pos = n
	}
	shifted := n - pos
	th.Other(4)
	th.ALU(4)
	th.WaitUntil(th.Now + d.cfg.CommandCycles + sim.Cycle(shifted)*shiftCyclesPerEntry)
	if err := d.Insert(value, care, data); err != nil {
		return err
	}
	if shifted > 0 {
		// Move the new entry from the end into its priority slot.
		w := 2 * d.cfg.KeyBytes
		copy(d.scratch, d.rows[w*n:])
		copy(d.rows[w*(pos+1):], d.rows[w*pos:w*n])
		copy(d.rows[w*pos:], d.scratch)
		copy(d.data[pos+1:], d.data[pos:n])
		d.data[pos] = data
		d.stale = true
	}
	return nil
}

// DeleteTimed removes the entry matching (value, care), charging the thread
// the shift-up cost for every entry below it. A value or care of the wrong
// length matches no entry and costs nothing.
func (d *Device) DeleteTimed(th *cpu.Thread, value, care []byte) bool {
	i := d.entryOf(value, care)
	if i < 0 {
		return false
	}
	shifted := len(d.data) - i - 1
	th.Other(4)
	th.ALU(4)
	th.WaitUntil(th.Now + d.cfg.CommandCycles + sim.Cycle(shifted)*shiftCyclesPerEntry)
	d.remove(i)
	return true
}
