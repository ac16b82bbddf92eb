package stats

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

func TestBucketIndexUpperConsistent(t *testing.T) {
	// Every value maps into a bucket whose upper bound is >= the value and
	// whose predecessor's upper bound is < the value.
	for _, v := range []uint64{0, 1, 15, 16, 17, 31, 32, 33, 100, 1023, 1024, 1 << 20, 1<<40 + 12345} {
		idx := bucketIndexRes(v, DefaultSubBits)
		if up := bucketUpperRes(idx, DefaultSubBits); up < v {
			t.Errorf("value %d: bucket %d upper bound %d < value", v, idx, up)
		}
		if idx > 0 {
			if up := bucketUpperRes(idx-1, DefaultSubBits); up >= v {
				t.Errorf("value %d: previous bucket %d upper bound %d >= value", v, idx-1, up)
			}
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	for v := uint64(1); v <= 100; v++ {
		h.Observe(v)
	}
	if h.Count() != 100 || h.Sum() != 5050 {
		t.Fatalf("count/sum = %d/%d, want 100/5050", h.Count(), h.Sum())
	}
	p50 := h.Quantile(0.50)
	p99 := h.Quantile(0.99)
	// Bucket quantization reports the bucket upper bound: p50 of 1..100 is
	// in the bucket containing 50, p99 in the bucket containing 99.
	if p50 < 50 || p50 > 55 {
		t.Errorf("p50 = %d, want ~50 (bucket upper bound)", p50)
	}
	if p99 < 99 || p99 > 104 {
		t.Errorf("p99 = %d, want ~99 (bucket upper bound)", p99)
	}
	if p50 > p99 {
		t.Errorf("p50 %d > p99 %d", p50, p99)
	}
}

func TestHistogramMergeEqualsCombined(t *testing.T) {
	a, b, both := NewHistogram(), NewHistogram(), NewHistogram()
	for v := uint64(0); v < 500; v += 3 {
		a.Observe(v)
		both.Observe(v)
	}
	for v := uint64(1); v < 900; v += 7 {
		b.Observe(v)
		both.Observe(v)
	}
	a.Merge(b)
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(both)
	if !bytes.Equal(aj, bj) {
		t.Errorf("merged histogram differs from combined:\n  merged:   %s\n  combined: %s", aj, bj)
	}
}

func TestHistogramJSONRoundTrip(t *testing.T) {
	h := NewHistogram()
	for _, v := range []uint64{0, 3, 17, 17, 900, 1 << 30} {
		h.Observe(v)
	}
	data, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	var back Histogram
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	again, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Errorf("histogram JSON not stable:\n  first:  %s\n  second: %s", data, again)
	}
	if back.Quantile(0.5) != h.Quantile(0.5) {
		t.Errorf("quantile changed across round-trip")
	}
}

func TestSnapshotMerge(t *testing.T) {
	a, b := NewSnapshot(), NewSnapshot()
	a.Add("cache.l1.hits", 10)
	a.Observe("lat.lookup.software", 120)
	b.Add("cache.l1.hits", 5)
	b.Add("cache.l1.misses", 2)
	b.Observe("lat.lookup.software", 200)
	a.Merge(b)
	if got := a.Counter("cache.l1.hits"); got != 15 {
		t.Errorf("merged counter = %d, want 15", got)
	}
	if got := a.Counter("cache.l1.misses"); got != 2 {
		t.Errorf("merged counter = %d, want 2", got)
	}
	if got := a.Hist("lat.lookup.software").Count(); got != 2 {
		t.Errorf("merged histogram count = %d, want 2", got)
	}
}

func TestDocumentRoundTrip(t *testing.T) {
	snap := NewSnapshot()
	snap.Add("cache.llc.misses", 42)
	snap.Add("accel.queries", 0)
	snap.Observe("lat.packet", 431)
	snap.Observe("lat.packet", 12888)

	type row struct {
		Kind  string
		Value float64
	}
	rowJSON, err := json.Marshal(row{Kind: "cuckoo", Value: 3.25})
	if err != nil {
		t.Fatal(err)
	}

	doc := &Document{
		Schema: SchemaVersion,
		Seed:   0x48414c4f,
		Experiments: []ExperimentDoc{
			{
				ID:    "fig4",
				Paper: "Figure 4",
				Points: []PointDoc{
					{Label: "cuckoo/1000-flows", Row: rowJSON, Snapshot: snap},
					{Label: "analytic-point"},
				},
				Snapshot: snap,
			},
		},
	}
	data, err := Encode(doc)
	if err != nil {
		t.Fatal(err)
	}

	// Decode → re-encode must reproduce the exact bytes.
	back, err := Validate(data)
	if err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if back.Experiment("fig4") == nil {
		t.Fatal("decoded document lost experiment fig4")
	}
	got := back.Experiment("fig4").Points[0].Snapshot
	if got.Counter("cache.llc.misses") != 42 {
		t.Errorf("decoded counter = %d, want 42", got.Counter("cache.llc.misses"))
	}
	if got.Hist("lat.packet").Count() != 2 {
		t.Errorf("decoded histogram count = %d, want 2", got.Hist("lat.packet").Count())
	}
}

func TestValidateRejectsWrongSchema(t *testing.T) {
	doc := &Document{Schema: "halo-stats/v999", Experiments: []ExperimentDoc{{ID: "x"}}}
	data, err := Encode(doc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Validate(data); err == nil {
		t.Error("Validate accepted an unknown schema version")
	}
}

func TestValidateRejectsTamperedBytes(t *testing.T) {
	doc := &Document{Schema: SchemaVersion, Experiments: []ExperimentDoc{{ID: "x"}}}
	data, err := Encode(doc)
	if err != nil {
		t.Fatal(err)
	}
	tampered := append(bytes.TrimRight(data, "\n"), ' ', '\n')
	if _, err := Validate(tampered); err == nil {
		t.Error("Validate accepted whitespace-tampered bytes")
	}
}

// Regression: Quantile must never panic or return NaN-derived garbage on
// degenerate histograms — empty, single-bucket, inconsistent decode (count
// set but no buckets), or out-of-range/NaN quantile arguments.
func TestHistogramQuantileDegenerate(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		h := NewHistogram()
		for _, q := range []float64{0, 0.5, 1} {
			if got := h.Quantile(q); got != 0 {
				t.Errorf("empty histogram Quantile(%v) = %d, want 0", q, got)
			}
		}
	})

	t.Run("single-bucket", func(t *testing.T) {
		h := NewHistogram()
		h.Observe(7)
		h.Observe(7)
		for _, q := range []float64{0, 0.5, 0.99, 1} {
			if got := h.Quantile(q); got != 7 {
				t.Errorf("single-bucket Quantile(%v) = %d, want 7", q, got)
			}
		}
	})

	t.Run("count-without-buckets", func(t *testing.T) {
		// A document whose count and bucket string disagree decodes to a
		// histogram with count > 0 but no populated buckets; Quantile used to
		// index an empty slice and panic.
		var h Histogram
		if err := h.UnmarshalJSON([]byte(`{"count":3,"sum":12,"buckets":""}`)); err != nil {
			t.Fatal(err)
		}
		if h.Count() != 3 {
			t.Fatalf("count = %d, want 3", h.Count())
		}
		for _, q := range []float64{0, 0.5, 1} {
			if got := h.Quantile(q); got != 0 {
				t.Errorf("bucketless Quantile(%v) = %d, want 0", q, got)
			}
		}
	})

	t.Run("bad-q", func(t *testing.T) {
		h := NewHistogram()
		h.Observe(3)
		h.Observe(9)
		if got := h.Quantile(math.NaN()); got != 3 {
			t.Errorf("Quantile(NaN) = %d, want 3 (clamps to q=0)", got)
		}
		if got := h.Quantile(-0.5); got != 3 {
			t.Errorf("Quantile(-0.5) = %d, want 3 (clamps to q=0)", got)
		}
		if got := h.Quantile(2.5); got != 9 {
			t.Errorf("Quantile(2.5) = %d, want 9 (clamps to q=1)", got)
		}
	})
}
