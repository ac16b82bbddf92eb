package stats

import "sort"

// Snapshot aggregates one measurement's counters and latency histograms
// under stable dotted names (e.g. "cache.llc.misses", "lat.lookup.accel").
// Components publish into a snapshot through their CollectInto methods;
// Add accumulates, so several components and threads merge into one
// snapshot cleanly.
type Snapshot struct {
	Counters map[string]uint64     `json:"counters,omitempty"`
	Hists    map[string]*Histogram `json:"histograms,omitempty"`
}

// NewSnapshot returns an empty snapshot.
func NewSnapshot() *Snapshot { return &Snapshot{} }

// Add accumulates v into the named counter (creating it at zero first, so
// counters appear in the output even when their value is zero — a stable
// schema diffs better than a sparse one).
func (s *Snapshot) Add(name string, v uint64) {
	if s.Counters == nil {
		s.Counters = make(map[string]uint64)
	}
	s.Counters[name] += v
}

// Counter returns a counter's value (zero when absent).
func (s *Snapshot) Counter(name string) uint64 { return s.Counters[name] }

// Observe records one value into the named histogram.
func (s *Snapshot) Observe(name string, v uint64) {
	s.hist(name).Observe(v)
}

// MergeHist merges an external histogram into the named one.
func (s *Snapshot) MergeHist(name string, h *Histogram) {
	if h == nil || h.Count() == 0 {
		return
	}
	s.hist(name).Merge(h)
}

// Hist returns the named histogram, or nil when absent.
func (s *Snapshot) Hist(name string) *Histogram { return s.Hists[name] }

func (s *Snapshot) hist(name string) *Histogram {
	if s.Hists == nil {
		s.Hists = make(map[string]*Histogram)
	}
	h := s.Hists[name]
	if h == nil {
		h = NewHistogram()
		s.Hists[name] = h
	}
	return h
}

// Merge accumulates another snapshot into s.
func (s *Snapshot) Merge(o *Snapshot) {
	if o == nil {
		return
	}
	for name, v := range o.Counters {
		s.Add(name, v)
	}
	for name, h := range o.Hists {
		s.MergeHist(name, h)
	}
}

// Empty reports whether the snapshot holds no data at all.
func (s *Snapshot) Empty() bool { return len(s.Counters) == 0 && len(s.Hists) == 0 }

// Names returns the counter names in sorted order.
func (s *Snapshot) Names() []string {
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
