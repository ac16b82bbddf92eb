package hypotheses

import (
	"fmt"
	"math"

	"halo/internal/benchjson"
)

// Verdict is the multi-seed classification of an experiment, following the
// BLIS standards: effect tiers are judged across ALL seeds, never on the
// mean alone, and a single seed moving the wrong way past the noise band is
// enough to refute a dominance claim.
type Verdict struct {
	Class  string  `json:"class"`
	Detail string  `json:"detail"`
	Mean   float64 `json:"mean"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// Verdict classes. Dominance experiments resolve to significant /
// directional / inconclusive / refuted; equivalence experiments resolve to
// equivalent / not-equivalent / inconclusive.
const (
	VerdictSignificant   = "significant"    // ≥ Significant improvement on every seed
	VerdictDirectional   = "directional"    // consistent win, but below the significant tier on some seed
	VerdictInconclusive  = "inconclusive"   // effect too small or seeds disagree
	VerdictRefuted       = "refuted"        // some seed contradicts the claim beyond the noise band
	VerdictEquivalent    = "equivalent"     // within the equivalence band on every seed
	VerdictNotEquivalent = "not-equivalent" // consistently outside the band
)

// inconclusiveBound is the BLIS "any seed under 10%" rule for dominance
// claims: an improvement that thin on even one seed is not a result worth
// reporting as a win.
const inconclusiveBound = 0.10

// summarize fills the Mean/Min/Max fields from the per-seed improvements.
func summarize(imps []float64) Verdict {
	v := Verdict{Min: math.Inf(1), Max: math.Inf(-1)}
	for _, x := range imps {
		v.Mean += x
		if x < v.Min {
			v.Min = x
		}
		if x > v.Max {
			v.Max = x
		}
	}
	v.Mean /= float64(len(imps))
	return v
}

// ClassifyDominance judges a claim of the form "A beats B". imps holds the
// improvement of A over B for each seed (positive = A better), oriented by
// benchjson.Improvement. Rules, in order:
//
//  1. refuted      — any seed shows B winning beyond the equivalence band
//  2. significant  — every seed improves by at least th.Significant
//  3. inconclusive — any seed improves by less than inconclusiveBound (10%)
//  4. directional  — everything else: a consistent win, not yet significant
func ClassifyDominance(imps []float64, th benchjson.Thresholds) Verdict {
	if len(imps) == 0 {
		return Verdict{Class: VerdictInconclusive, Detail: "no seeds measured"}
	}
	v := summarize(imps)
	switch {
	case v.Min < -th.Equivalence:
		v.Class = VerdictRefuted
		v.Detail = fmt.Sprintf("a seed shows B ahead by %.1f%%, beyond the ±%.0f%% noise band",
			-v.Min*100, th.Equivalence*100)
	case v.Min >= th.Significant:
		v.Class = VerdictSignificant
		v.Detail = fmt.Sprintf("A ahead by ≥%.0f%% on every seed", th.Significant*100)
	case v.Min < inconclusiveBound:
		v.Class = VerdictInconclusive
		v.Detail = fmt.Sprintf("weakest seed improves only %.1f%% (<%.0f%%): effect too small to call",
			v.Min*100, inconclusiveBound*100)
	default:
		v.Class = VerdictDirectional
		v.Detail = fmt.Sprintf("A ahead on every seed (weakest %.1f%%), below the %.0f%% significant tier",
			v.Min*100, th.Significant*100)
	}
	return v
}

// ClassifyEquivalence judges a claim of the form "A is within the noise
// band of B". Rules:
//
//  1. equivalent     — every seed's |improvement| ≤ th.Equivalence
//  2. inconclusive   — seeds fall on both sides of the band (disagree)
//  3. not-equivalent — a consistent gap beyond the band, either direction
func ClassifyEquivalence(imps []float64, th benchjson.Thresholds) Verdict {
	if len(imps) == 0 {
		return Verdict{Class: VerdictInconclusive, Detail: "no seeds measured"}
	}
	v := summarize(imps)
	switch {
	case v.Min >= -th.Equivalence && v.Max <= th.Equivalence:
		v.Class = VerdictEquivalent
		v.Detail = fmt.Sprintf("every seed within ±%.0f%%", th.Equivalence*100)
	case v.Min < -th.Equivalence && v.Max > th.Equivalence:
		v.Class = VerdictInconclusive
		v.Detail = fmt.Sprintf("seeds disagree: %.1f%% to %+.1f%% spans the ±%.0f%% band both ways",
			v.Min*100, v.Max*100, th.Equivalence*100)
	case v.Max > th.Equivalence:
		v.Class = VerdictNotEquivalent
		v.Detail = fmt.Sprintf("A consistently faster, up to %.1f%% beyond the ±%.0f%% band",
			v.Max*100, th.Equivalence*100)
	default:
		v.Class = VerdictNotEquivalent
		v.Detail = fmt.Sprintf("A consistently slower, up to %.1f%% beyond the ±%.0f%% band",
			-v.Min*100, th.Equivalence*100)
	}
	return v
}
