package power

import (
	"math"
	"testing"
)

func approx(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*want
}

func TestTCAMAnchorsReproduceTable4(t *testing.T) {
	cases := []struct {
		capBytes uint64
		area     float64
		static   float64
		dynamic  float64
	}{
		{1 << 10, 0.001, 71.1, 0.04},
		{10 << 10, 0.066, 235.3, 0.37},
		{100 << 10, 1.044, 3850.5, 13.84},
		{1 << 20, 9.343, 26733.1, 84.82},
	}
	for _, c := range cases {
		e := TCAMEstimate(c.capBytes)
		if !approx(e.AreaTiles, c.area, 0.01) ||
			!approx(e.StaticMW, c.static, 0.01) ||
			!approx(e.DynamicNJPerQuery, c.dynamic, 0.01) {
			t.Fatalf("TCAM %dB = %+v, want {%v %v %v}", c.capBytes, e, c.area, c.static, c.dynamic)
		}
	}
}

func TestTCAMInterpolationMonotone(t *testing.T) {
	prev := TCAMEstimate(1 << 10)
	for capBytes := uint64(2 << 10); capBytes <= 2<<20; capBytes *= 2 {
		e := TCAMEstimate(capBytes)
		if e.AreaTiles <= prev.AreaTiles || e.StaticMW <= prev.StaticMW ||
			e.DynamicNJPerQuery <= prev.DynamicNJPerQuery {
			t.Fatalf("TCAM estimate not monotone at %dB: %+v vs %+v", capBytes, e, prev)
		}
		prev = e
	}
}

func TestHeadlineEfficiency(t *testing.T) {
	// Paper abstract: up to 48.2x more energy-efficient than TCAM.
	eff := EfficiencyVsTCAM(1 << 20)
	if !approx(eff, 48.2, 0.02) {
		t.Fatalf("efficiency vs 1MB TCAM = %.1f, want ~48.2", eff)
	}
}

func TestSRAMTCAMCheaperThanTCAM(t *testing.T) {
	for _, capBytes := range []uint64{1 << 10, 100 << 10, 1 << 20} {
		tc := TCAMEstimate(capBytes)
		sr := SRAMTCAMEstimate(capBytes)
		if sr.StaticMW >= tc.StaticMW || sr.AreaTiles >= tc.AreaTiles ||
			sr.DynamicNJPerQuery >= tc.DynamicNJPerQuery {
			t.Fatalf("SRAM-TCAM not cheaper at %dB: %+v vs %+v", capBytes, sr, tc)
		}
		if !approx(sr.StaticMW, tc.StaticMW*0.55, 0.01) {
			t.Fatalf("SRAM power scale off: %v vs %v", sr.StaticMW, tc.StaticMW)
		}
	}
}

func TestHaloEstimates(t *testing.T) {
	a := HaloAcceleratorEstimate()
	if a.StaticMW != 97.2 || a.DynamicNJPerQuery != 1.76 || a.AreaTiles != 0.012 {
		t.Fatalf("HALO accelerator estimate = %+v", a)
	}
	if HaloChipAreaPercent() != 1.2 {
		t.Fatalf("area percent = %v", HaloChipAreaPercent())
	}
}

func TestTable4Shape(t *testing.T) {
	rows := Table4()
	if len(rows) != 5 {
		t.Fatalf("%d rows, want 5", len(rows))
	}
	if rows[4].Solution != "HALO (per accelerator)" {
		t.Fatalf("last row = %q", rows[4].Solution)
	}
	if rows[3].DynamicNJPerQuery/rows[4].DynamicNJPerQuery < 40 {
		t.Fatal("Table 4 loses the 48x efficiency headline")
	}
}

func TestExtrapolationBeyondAnchors(t *testing.T) {
	// 4MB TCAM extrapolates on the last segment and keeps growing.
	big := TCAMEstimate(4 << 20)
	if big.DynamicNJPerQuery <= TCAMEstimate(1<<20).DynamicNJPerQuery {
		t.Fatal("extrapolation above anchors not increasing")
	}
	small := TCAMEstimate(256)
	if small.DynamicNJPerQuery >= TCAMEstimate(1<<10).DynamicNJPerQuery {
		t.Fatal("extrapolation below anchors not decreasing")
	}
}
