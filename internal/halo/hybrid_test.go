package halo

import (
	"testing"

	"halo/internal/cpu"
	"halo/internal/cuckoo"
)

// testHybrid builds a hybrid controller over a freshly populated table.
// The window is wide enough that a few hundred lookups fit inside one
// window, so tests control closes explicitly via Scan.
func testHybrid(t *testing.T) (*Platform, *Hybrid, *cuckoo.Table, *cpu.Thread) {
	t.Helper()
	p := testPlatform(t)
	tbl := populatedTable(t, p, 4096, 3000)
	cfg := DefaultHybridConfig()
	cfg.WindowCycles = 500_000
	return p, NewHybrid(cfg, p.Unit), tbl, cpu.NewThread(p.Hier, 0)
}

// driveToSoftware runs few-flow traffic until the controller switches to
// the software path.
func driveToSoftware(t *testing.T, hy *Hybrid, tbl *cuckoo.Table, th *cpu.Thread) {
	t.Helper()
	for i := 0; i < 50_000 && hy.Mode() != ModeSoftware; i++ {
		hy.Lookup(th, tbl, key16(uint64(i%4)))
	}
	if hy.Mode() != ModeSoftware {
		t.Fatal("few-flow traffic never drove the controller to software mode")
	}
}

// Regression: windowStart used to be anchored at cycle 0, so a thread whose
// clock was already past WindowCycles closed an empty window on its very
// first lookup and spuriously switched to software. The first observation
// must anchor the window instead.
func TestHybridFirstLookupDoesNotCloseWindow(t *testing.T) {
	_, hy, tbl, th := testHybrid(t)
	th.WaitUntil(5 * hy.cfg.WindowCycles) // simulate a thread that started late
	for i := uint64(0); i < 10; i++ {
		if v, ok := hy.Lookup(th, tbl, key16(i)); !ok || v != i*2+1 {
			t.Fatalf("Lookup(%d) = (%d,%v), want (%d,true)", i, v, ok, i*2+1)
		}
	}
	if got := hy.Scans(); got != 0 {
		t.Errorf("first lookups closed %d windows, want 0", got)
	}
	if got := hy.Switches(); got != 0 {
		t.Errorf("first lookups caused %d mode switches, want 0", got)
	}
	if hy.Mode() != ModeAccel {
		t.Errorf("mode = %v after first lookups, want %v", hy.Mode(), ModeAccel)
	}
}

// Regression: a window that observed no lookups says nothing about the
// active flow set — its empty register must not flip the mode (in either
// direction).
func TestHybridEmptyWindowKeepsMode(t *testing.T) {
	_, hy, tbl, th := testHybrid(t)

	// Accel side: many-flow traffic, then an idle gap spanning windows.
	for i := uint64(0); i < 300; i++ {
		hy.Lookup(th, tbl, key16(i))
	}
	hy.Scan(th.Now + hy.cfg.WindowCycles) // close the observed window
	if hy.Mode() != ModeAccel {
		t.Fatalf("many-flow traffic left mode %v, want %v", hy.Mode(), ModeAccel)
	}
	switches, scans := hy.Switches(), hy.Scans()
	hy.Scan(th.Now + 10*hy.cfg.WindowCycles) // zero-lookup window
	if got := hy.Scans(); got != scans+1 {
		t.Fatalf("idle scan closed %d windows, want 1", got-scans)
	}
	if hy.Mode() != ModeAccel || hy.Switches() != switches {
		t.Errorf("zero-lookup window flipped mode to %v (%d switches)", hy.Mode(), hy.Switches())
	}

	// Software side: the same idle gap must not flip back to accel either.
	driveToSoftware(t, hy, tbl, th)
	switches = hy.Switches()
	hy.Scan(th.Now + 20*hy.cfg.WindowCycles)
	if hy.Mode() != ModeSoftware || hy.Switches() != switches {
		t.Errorf("zero-lookup window flipped mode to %v (%d switches)", hy.Mode(), hy.Switches())
	}
}

// Regression: window close used to reset only the register being scanned,
// so the inactive register carried bits from the last window it was active
// in. Both registers must come out of every close empty.
func TestHybridScanResetsBothRegisters(t *testing.T) {
	p, hy, tbl, th := testHybrid(t)
	for i := uint64(0); i < 200; i++ {
		hy.Lookup(th, tbl, key16(i)) // accel mode fills the unit register
	}
	for i := uint64(0); i < 500; i++ {
		hy.softReg.ObserveKey(key16(i)) // stale bits from a long-past software phase
	}
	hy.Scan(th.Now + hy.cfg.WindowCycles)
	if est := p.Unit.ActiveFlowEstimate(); est != 0 {
		t.Errorf("unit flow register estimates %.1f flows after window close, want 0", est)
	}
	if est := hy.softReg.Estimate(); est != 0 {
		t.Errorf("software flow register estimates %.1f flows after window close, want 0", est)
	}
}

// Regression (behavioural face of the register reset): stale software-side
// bits must not inflate the first post-switch estimate and bounce the
// controller straight back to the accelerator.
func TestHybridStaleRegisterDoesNotBounceMode(t *testing.T) {
	_, hy, tbl, th := testHybrid(t)
	for i := uint64(0); i < 500; i++ {
		hy.softReg.ObserveKey(key16(i)) // pretend a busy software phase long ago
	}
	driveToSoftware(t, hy, tbl, th)
	if got := hy.Switches(); got != 1 {
		t.Fatalf("switches = %d driving to software, want 1", got)
	}
	// Run few-flow traffic across at least two more window closes: the
	// estimates must come from live traffic (~4 flows), not the stale bits.
	scans := hy.Scans()
	for i := 0; i < 100_000 && hy.Scans() < scans+2; i++ {
		hy.Lookup(th, tbl, key16(uint64(i%4)))
	}
	if hy.Scans() < scans+2 {
		t.Fatal("traffic never closed two more windows")
	}
	if hy.Mode() != ModeSoftware || hy.Switches() != 1 {
		t.Errorf("mode = %v with %d switches, want %v with 1: stale register bits bounced the mode",
			hy.Mode(), hy.Switches(), ModeSoftware)
	}
}

func TestHybridLookupValues(t *testing.T) {
	p := testPlatform(t)
	tbl := populatedTable(t, p, 512, 300)
	hy := NewHybrid(DefaultHybridConfig(), p.Unit)
	th := cpu.NewThread(p.Hier, 0)
	for i := uint64(0); i < 300; i++ {
		if v, ok := hy.Lookup(th, tbl, key16(i)); !ok || v != i*2+1 {
			t.Fatalf("accel-mode Lookup(%d) = (%d,%v), want (%d,true)", i, v, ok, i*2+1)
		}
	}
	if sw, hw := hy.Lookups(); sw != 0 || hw != 300 {
		t.Fatalf("lookups sw=%d hw=%d, want all 300 on the accelerator", sw, hw)
	}
	// Drive it into software mode with a tiny flow set and check Lookup
	// still answers through the software path.
	cfg := DefaultHybridConfig()
	cfg.WindowCycles = 5_000
	hy2 := NewHybrid(cfg, p.Unit)
	for i := 0; i < 30000 && hy2.Mode() != ModeSoftware; i++ {
		hy2.Lookup(th, tbl, key16(uint64(i%3)))
	}
	if hy2.Mode() != ModeSoftware {
		t.Fatal("hybrid never switched to software")
	}
	sw, _ := hy2.Lookups()
	if v, ok := hy2.Lookup(th, tbl, key16(1)); !ok || v != 3 {
		t.Fatalf("software-mode Lookup(1) = (%d,%v), want (3,true)", v, ok)
	}
	if sw2, _ := hy2.Lookups(); sw2 != sw+1 {
		t.Fatal("software-mode Lookup did not take the software path")
	}
}
