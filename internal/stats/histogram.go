// Package stats is the unified observability layer: stable dotted-name
// counters, cycle-bucketed latency histograms, and a schema-versioned JSON
// document that carries every experiment's rows and per-component counters.
//
// The package sits below every simulator component (it imports only the
// standard library), so cpu threads, the cache hierarchy, accelerator units,
// the query distributor, cuckoo tables and the hybrid controller can all
// publish into one Snapshot without import cycles. Every experiment sweep
// point fills a fresh Snapshot of its own and returns it beside its row;
// the runner files it in the point's document entry. Everything here is
// deterministic: maps serialize in sorted order, histograms quantize to
// fixed bucket boundaries, and documents contain no timestamps or
// host-dependent values, so the same simulation always produces the same
// bytes — the property the runner's verify mode and CI's serial-vs-pooled
// byte comparison check.
package stats

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strconv"
	"strings"
)

// Sub-bucket resolution bounds. DefaultSubBits is the historical layout (16
// sub-buckets per octave, ~6% relative error) every simulator document uses;
// its encoding is byte-identical to histograms that predate configurable
// resolution. Higher resolutions exist for tail quantiles: at p99.9 a 6%
// bucket width swallows the entire tail signal, so latency-measuring load
// generators use NewHistogramRes(HighResSubBits) (~0.4% relative error).
const (
	DefaultSubBits = 4
	HighResSubBits = 8
	maxSubBits     = 10
)

// Histogram counts observations in log-scaled buckets: values below
// 2^subBits get exact buckets; larger values land in power-of-two octaves
// split into 2^subBits linear sub-buckets, bounding the relative
// quantization error at 2^-subBits. Quantiles return a bucket's upper
// bound, so they are exact integers that do not depend on observation
// order.
type Histogram struct {
	count   uint64
	sum     uint64
	buckets map[int]uint64
	subBits uint8 // 0 reads as DefaultSubBits (zero-value and decode compat)
}

// NewHistogram returns an empty histogram at the default resolution (16
// sub-buckets per octave, ~6% relative error).
func NewHistogram() *Histogram { return &Histogram{} }

// NewHistogramRes returns an empty histogram with 2^subBits sub-buckets per
// octave. subBits outside [DefaultSubBits, maxSubBits] is clamped. Use
// HighResSubBits when tail quantiles (p99.9) must stay meaningful.
func NewHistogramRes(subBits int) *Histogram {
	if subBits < DefaultSubBits {
		subBits = DefaultSubBits
	}
	if subBits > maxSubBits {
		subBits = maxSubBits
	}
	return &Histogram{subBits: uint8(subBits)}
}

// res returns the effective sub-bucket bits (the zero value is the default
// resolution, so pre-existing zero-valued and decoded histograms keep their
// historical layout).
func (h *Histogram) res() uint {
	if h.subBits == 0 {
		return DefaultSubBits
	}
	return uint(h.subBits)
}

// bucketIndexRes maps a value to its bucket at resolution b: 0..2^b-1
// exact, then 2^b sub-buckets per power-of-two octave.
func bucketIndexRes(v uint64, b uint) int {
	if v < 1<<b {
		return int(v)
	}
	exp := uint(bits.Len64(v)) - 1 // >= b
	sub := int((v >> (exp - b)) & (1<<b - 1))
	return 1<<b + int(exp-b)<<b + sub
}

// bucketUpperRes returns the largest value that maps to bucket idx at
// resolution b — the value quantiles report.
func bucketUpperRes(idx int, b uint) uint64 {
	if idx < 1<<b {
		return uint64(idx)
	}
	rel := idx - 1<<b
	exp := uint(rel>>b) + b
	sub := uint64(rel & (1<<b - 1))
	return (uint64(1) << exp) + (sub+1)<<(exp-b) - 1
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	if h.buckets == nil {
		h.buckets = make(map[int]uint64)
	}
	h.buckets[bucketIndexRes(v, h.res())]++
	h.count++
	h.sum += v
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the exact sum of all observed values (for means).
func (h *Histogram) Sum() uint64 { return h.sum }

// Mean returns the exact average of the observed values.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Merge adds another histogram's observations into h. Matching resolutions
// merge bucket-for-bucket; a mismatched resolution is re-quantized through
// each source bucket's upper bound (deterministic, at the coarser of the two
// error bounds), with count and sum carried over exactly.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.count == 0 {
		return
	}
	if h.buckets == nil {
		h.buckets = make(map[int]uint64)
	}
	if h.res() == o.res() {
		for idx, c := range o.buckets {
			h.buckets[idx] += c
		}
	} else {
		b, ob := h.res(), o.res()
		for idx, c := range o.buckets {
			h.buckets[bucketIndexRes(bucketUpperRes(idx, ob), b)] += c
		}
	}
	h.count += o.count
	h.sum += o.sum
}

// sortedIdxs returns the populated bucket indexes in ascending order.
func (h *Histogram) sortedIdxs() []int {
	idxs := make([]int, 0, len(h.buckets))
	for idx := range h.buckets {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	return idxs
}

// Quantile returns the upper bound of the bucket containing the q-th
// quantile observation (q in [0,1]; out-of-range values clamp, NaN reads as
// 0). Deterministic: the result depends only on the bucket counts, never on
// observation order. A histogram with no populated buckets — empty, or
// decoded from a document whose count and bucket string disagree — returns
// 0 rather than panicking.
func (h *Histogram) Quantile(q float64) uint64 {
	if h.count == 0 || len(h.buckets) == 0 {
		return 0
	}
	if math.IsNaN(q) || q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	target := uint64(math.Ceil(q * float64(h.count)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	idxs := h.sortedIdxs()
	for _, idx := range idxs {
		cum += h.buckets[idx]
		if cum >= target {
			return bucketUpperRes(idx, h.res())
		}
	}
	return bucketUpperRes(idxs[len(idxs)-1], h.res())
}

// MarshalJSON emits {"count":N,"sum":S,"buckets":"idx:count,idx:count"} with
// buckets in ascending index order — a compact, byte-stable encoding. A
// non-default resolution adds a "res" field; default-resolution histograms
// keep the historical byte shape exactly.
func (h *Histogram) MarshalJSON() ([]byte, error) {
	var b bytes.Buffer
	b.WriteString(`{"count":`)
	fmt.Fprintf(&b, `%d,"sum":%d,`, h.count, h.sum)
	if h.res() != DefaultSubBits {
		fmt.Fprintf(&b, `"res":%d,`, h.res())
	}
	b.WriteString(`"buckets":"`)
	for i, idx := range h.sortedIdxs() {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d:%d", idx, h.buckets[idx])
	}
	b.WriteString(`"}`)
	return b.Bytes(), nil
}

// UnmarshalJSON parses the MarshalJSON encoding.
func (h *Histogram) UnmarshalJSON(data []byte) error {
	var wire struct {
		Count   uint64 `json:"count"`
		Sum     uint64 `json:"sum"`
		Res     uint8  `json:"res"`
		Buckets string `json:"buckets"`
	}
	if err := json.Unmarshal(data, &wire); err != nil {
		return err
	}
	h.count = wire.Count
	h.sum = wire.Sum
	h.buckets = nil
	if wire.Res != 0 && (wire.Res < DefaultSubBits || wire.Res > maxSubBits) {
		return fmt.Errorf("stats: histogram resolution %d out of range", wire.Res)
	}
	h.subBits = wire.Res
	if wire.Buckets == "" {
		return nil
	}
	h.buckets = make(map[int]uint64)
	for _, pair := range strings.Split(wire.Buckets, ",") {
		idxStr, cntStr, ok := strings.Cut(pair, ":")
		if !ok {
			return fmt.Errorf("stats: malformed histogram bucket %q", pair)
		}
		idx, err := strconv.Atoi(idxStr)
		if err != nil {
			return fmt.Errorf("stats: malformed histogram bucket index %q", idxStr)
		}
		cnt, err := strconv.ParseUint(cntStr, 10, 64)
		if err != nil {
			return fmt.Errorf("stats: malformed histogram bucket count %q", cntStr)
		}
		h.buckets[idx] = cnt
	}
	return nil
}
