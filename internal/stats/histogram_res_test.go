package stats

import (
	"encoding/json"
	"testing"
)

// TestBucketMappingHighRes checks index/upper consistency at every
// supported resolution, the way TestBucketMapping pins the default layout.
func TestBucketMappingHighRes(t *testing.T) {
	for b := uint(DefaultSubBits); b <= maxSubBits; b++ {
		for _, v := range []uint64{0, 1, 15, 16, 17, 255, 256, 1023, 1024, 99_999, 1 << 40, 1<<63 + 12345} {
			idx := bucketIndexRes(v, b)
			if up := bucketUpperRes(idx, b); up < v {
				t.Fatalf("res %d: bucketUpperRes(%d) = %d < observed %d", b, idx, up, v)
			}
			if idx > 0 && bucketUpperRes(idx-1, b) >= v {
				t.Fatalf("res %d: value %d not in its tightest bucket %d", b, v, idx)
			}
		}
	}
}

// TestHighResQuantileError proves the point of the high-resolution layout:
// the p99.9 bucket upper bound stays within 2^-subBits of the true value,
// where the default resolution is ~16x coarser.
func TestHighResQuantileError(t *testing.T) {
	const n = 100_000
	lo, hi := NewHistogram(), NewHistogramRes(HighResSubBits)
	for i := uint64(1); i <= n; i++ {
		// A skewed latency-like shape: most values small, a long tail.
		v := i
		lo.Observe(v)
		hi.Observe(v)
	}
	exact := uint64(99_900) // the p99.9 observation of 1..100000
	q := 0.999
	loErr := float64(lo.Quantile(q)-exact) / float64(exact)
	hiErr := float64(hi.Quantile(q)-exact) / float64(exact)
	if hiErr < 0 || loErr < 0 {
		t.Fatalf("quantile upper bounds must not undershoot: lo %f hi %f", loErr, hiErr)
	}
	if hiErr > 1.0/float64(int(1)<<HighResSubBits) {
		t.Fatalf("high-res p99.9 error %.4f exceeds bound %.4f", hiErr, 1.0/float64(int(1)<<HighResSubBits))
	}
	if hiErr >= loErr && loErr != 0 {
		t.Fatalf("high-res error %.4f not tighter than default %.4f", hiErr, loErr)
	}
}

func TestHistogramResJSONRoundTrip(t *testing.T) {
	h := NewHistogramRes(HighResSubBits)
	for _, v := range []uint64{3, 900, 900, 70_000, 1 << 30} {
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
	if back.res() != HighResSubBits {
		t.Fatalf("resolution did not round-trip: %d", back.res())
	}
	for _, q := range []float64{0, 0.5, 0.99, 0.999, 1} {
		if h.Quantile(q) != back.Quantile(q) {
			t.Fatalf("quantile %f diverged after round trip: %d vs %d", q, h.Quantile(q), back.Quantile(q))
		}
	}
	// Default-resolution histograms keep the historical byte shape: no
	// "res" key may appear (simulator documents are byte-compared in CI).
	d := NewHistogram()
	d.Observe(42)
	data, err = json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != `{"count":1,"sum":42,"buckets":"37:1"}` {
		t.Fatalf("default-resolution encoding changed shape: %s", data)
	}
	var bad Histogram
	if err := json.Unmarshal([]byte(`{"count":1,"sum":1,"res":99,"buckets":"1:1"}`), &bad); err == nil {
		t.Fatal("out-of-range resolution decoded without error")
	}
}

// TestHistogramMergeAcrossResolutions merges a high-res histogram into a
// default one and vice versa: counts and sums carry exactly, quantiles stay
// within the coarser layout's error bound.
func TestHistogramMergeAcrossResolutions(t *testing.T) {
	hi, lo := NewHistogramRes(HighResSubBits), NewHistogram()
	for i := uint64(1); i <= 1000; i++ {
		hi.Observe(i * 97)
		lo.Observe(i * 97)
	}
	merged := NewHistogram()
	merged.Merge(hi) // re-quantized through bucket uppers
	if merged.Count() != hi.Count() || merged.Sum() != hi.Sum() {
		t.Fatalf("merge dropped mass: count %d sum %d", merged.Count(), merged.Sum())
	}
	for _, q := range []float64{0.5, 0.95, 0.999} {
		got, want := merged.Quantile(q), lo.Quantile(q)
		// Re-quantizing via uppers can push an observation at a bucket edge
		// into the next coarse bucket; allow one default-resolution step.
		if got < want || float64(got-want) > float64(want)/8 {
			t.Fatalf("q%.3f after cross-res merge = %d, native default = %d", q, got, want)
		}
	}

	up := NewHistogramRes(HighResSubBits)
	up.Merge(lo)
	if up.Count() != lo.Count() || up.Sum() != lo.Sum() {
		t.Fatalf("upward merge dropped mass")
	}
}
