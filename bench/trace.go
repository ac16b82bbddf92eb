package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// span is one timed interval at a layer boundary. Spans of one request share
// Req; Parent is the span that caused this one (0 for a root). Times are
// nanoseconds since the run's clock base.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// keptCalls is how many of a caller's calls keep their spans for trace.json:
// the last ones of the run. Every traced call is recorded — a 10 s run makes
// millions — into a ring that overwrites the oldest, so tracing costs the
// same on every call and loadgen.trace_overhead_share is the cost of
// recording, while the totals below cover every call.
const keptCalls = 4096

// recorder collects one caller's spans in memory; nothing is written until
// the run ends. IDs are unique across callers because each recorder numbers
// from its own caller<<40 base.
type recorder struct {
	next  uint64
	ring  []span // 3 spans per call, oldest overwritten
	calls int

	// Durations summed over every recorded call, kept or overwritten.
	rootNs, layerNs, verifyNs int64
}

func newRecorder(caller int) *recorder {
	return &recorder{next: uint64(caller+1) << 40, ring: make([]span, 3*keptCalls)}
}

// call records one request: the root loadgen.call span over [start,end) with
// the layer call [start,layerEnd) and loadgen.verify [layerEnd,verifyEnd) as
// its children.
func (r *recorder) call(layer string, start, layerEnd, verifyEnd, end int64) {
	root := r.next
	r.next += 3
	slot := r.ring[3*(r.calls%keptCalls):]
	slot[0] = span{ID: root, Req: root, Name: spanCall, Start: start, End: end}
	slot[1] = span{ID: root + 1, Parent: root, Req: root, Name: layer, Start: start, End: layerEnd}
	slot[2] = span{ID: root + 2, Parent: root, Req: root, Name: spanVerify, Start: layerEnd, End: verifyEnd}
	r.calls++
	r.rootNs += end - start
	r.layerNs += layerEnd - start
	r.verifyNs += verifyEnd - layerEnd
}

// spans returns the kept spans, oldest call first.
func (r *recorder) spans() []span {
	if r.calls <= keptCalls {
		return r.ring[:3*r.calls]
	}
	at := 3 * (r.calls % keptCalls)
	return append(append([]span(nil), r.ring[at:]...), r.ring[:at]...)
}

const (
	spanCall   = "loadgen.call"
	spanVerify = "loadgen.verify"
)

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval that its child spans cover
// (overlapping children are counted once; a child is clipped to its parent).
func selfTimes(spans []span) map[string]int64 {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]int64)
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.Name] += (s.End - s.Start) - covered
	}
	return self
}

// traceDoc is trace.json: the retained spans of every traced workload.
type traceDoc struct {
	Schema string          `json:"schema"`
	Traces []workloadTrace `json:"traces"`
}

type workloadTrace struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Spans    []span `json:"spans"`

	// Serving workloads: every traced call, not only the kept ones. WallNs is
	// how long the callers ran traced, read off the run's timeline and not
	// off any span; SelfNs is each span name's self time summed over all
	// calls. Time a caller spent outside every span shows as their difference.
	Calls  int              `json:"calls,omitempty"`
	WallNs int64            `json:"wall_ns,omitempty"`
	SelfNs map[string]int64 `json:"self_ns,omitempty"`
}

const traceSchema = "halo-trace/v1"

// writeTrace writes the spans, loads the file back and checks the arithmetic
// the trace exists for. Per workload, the self times of the kept spans must
// add up to their root loadgen.call time, and — where the trace carries them —
// the self times of all calls must add up to the wall time the callers ran
// traced, both within 5 %: otherwise some layer's time is unaccounted for.
func writeTrace(path string, traces []workloadTrace) error {
	data, err := json.Marshal(traceDoc{Schema: traceSchema, Traces: traces})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	back, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc traceDoc
	if err := json.Unmarshal(back, &doc); err != nil {
		return fmt.Errorf("%s does not load: %w", path, err)
	}
	within := func(got, want int64) bool {
		return want > 0 && got-want <= want/20 && want-got <= want/20
	}
	for _, wt := range doc.Traces {
		var roots, selfSum, allSelf int64
		for _, s := range wt.Spans {
			if s.Parent == 0 {
				roots += s.End - s.Start
			}
		}
		for _, v := range selfTimes(wt.Spans) {
			selfSum += v
		}
		if !within(selfSum, roots) {
			return fmt.Errorf("%s: %s: self times sum to %d ns, root spans to %d ns", path, wt.Workload, selfSum, roots)
		}
		for _, v := range wt.SelfNs {
			allSelf += v
		}
		if wt.Calls > 0 && !within(allSelf, wt.WallNs) {
			return fmt.Errorf("%s: %s: self times of %d calls sum to %d ns, the callers ran traced for %d ns",
				path, wt.Workload, wt.Calls, allSelf, wt.WallNs)
		}
	}
	return nil
}
