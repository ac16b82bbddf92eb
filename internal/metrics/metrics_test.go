package metrics

import (
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tb := NewTable("Fig. X", "config", "cycles", "speedup")
	tb.SetCaption("an explanation")
	tb.AddRow("small", 123.0, Speedup(300, 100))
	tb.AddRow("large", 45678.9, Speedup(100, 300))
	var sb strings.Builder
	tb.Render(&sb)
	out := sb.String()
	for _, want := range []string{"Fig. X", "an explanation", "config", "small", "3.00x", "0.33x", "45679"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
	if tb.Rows() != 2 {
		t.Fatal("row count broken")
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		3.14159: "3.14",
		42.42:   "42.4",
		1234.5:  "1234", // %.0f rounds half to even
		1234.51: "1235",
		0.00123: "0.00123",
	}
	for in, want := range cases {
		if got := FormatFloat(in); got != want {
			t.Errorf("FormatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestHelpers(t *testing.T) {
	if Speedup(10, 0) != "inf" {
		t.Fatal("zero-division speedup")
	}
	if Percent(0.778) != "77.8%" {
		t.Fatalf("Percent = %q", Percent(0.778))
	}
	// 2.1GHz at 210 cycles/pkt = 10 Mpps.
	if got := Mpps(210, 2.1); got < 9.99 || got > 10.01 {
		t.Fatalf("Mpps = %v", got)
	}
	if Mpps(0, 2.1) != 0 {
		t.Fatal("Mpps(0) should be 0")
	}
}
