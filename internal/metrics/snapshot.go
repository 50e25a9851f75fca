package metrics

// Snapshot is a point-in-time, JSON-stable view of a Registry. Series
// appear in name order (then label-value order), per-bucket counts are
// non-cumulative with the overflow bucket last, and quantiles are
// precomputed so consumers of BENCH_*.json artifacts never re-implement
// interpolation. Snapshot round-trips through encoding/json losslessly.
type Snapshot struct {
	Counters   []CounterSnapshot   `json:"counters,omitempty"`
	Gauges     []GaugeSnapshot     `json:"gauges,omitempty"`
	Histograms []HistogramSnapshot `json:"histograms,omitempty"`
}

// CounterSnapshot is one counter series.
type CounterSnapshot struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  int64             `json:"value"`
}

// GaugeSnapshot is one gauge series.
type GaugeSnapshot struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value"`
}

// HistogramSnapshot is one histogram series. Counts[i] holds the
// observations in (Bounds[i-1], Bounds[i]]; the final entry counts
// observations above the largest bound.
type HistogramSnapshot struct {
	Name      string             `json:"name"`
	Labels    map[string]string  `json:"labels,omitempty"`
	Count     int64              `json:"count"`
	Sum       float64            `json:"sum"`
	Bounds    []float64          `json:"bounds"`
	Counts    []int64            `json:"counts"`
	Quantiles map[string]float64 `json:"quantiles,omitempty"`
}

// snapshotQuantiles are the convenience quantiles precomputed per histogram.
var snapshotQuantiles = map[string]float64{"p50": 0.5, "p90": 0.9, "p99": 0.99}

// Snapshot captures the registry's current state. Concurrent updates during
// the capture land in or after the snapshot per instrument; each individual
// instrument is read atomically.
func (r *Registry) Snapshot() Snapshot {
	var snap Snapshot
	for _, f := range r.sortedFamilies() {
		for _, s := range f.sortedSeries() {
			labels := labelMap(f.labels, s.vals)
			switch f.k {
			case kindCounter:
				snap.Counters = append(snap.Counters, CounterSnapshot{
					Name: f.name, Labels: labels, Value: s.c.Value(),
				})
			case kindGauge:
				snap.Gauges = append(snap.Gauges, GaugeSnapshot{
					Name: f.name, Labels: labels, Value: s.g.Value(),
				})
			case kindHistogram:
				hs := HistogramSnapshot{
					Name:   f.name,
					Labels: labels,
					Count:  s.h.Count(),
					Sum:    s.h.Sum(),
					Bounds: append([]float64(nil), s.h.bounds...),
					Counts: s.h.bucketCounts(),
				}
				if hs.Count > 0 {
					hs.Quantiles = make(map[string]float64, len(snapshotQuantiles))
					for name, q := range snapshotQuantiles {
						hs.Quantiles[name] = s.h.Quantile(q)
					}
				}
				snap.Histograms = append(snap.Histograms, hs)
			}
		}
	}
	return snap
}

func labelMap(keys, vals []string) map[string]string {
	if len(keys) == 0 {
		return nil
	}
	m := make(map[string]string, len(keys))
	for i, k := range keys {
		m[k] = vals[i]
	}
	return m
}

// Counter returns the value of the named counter series (labels as
// alternating key, value pairs) and whether it exists in the snapshot.
func (s Snapshot) Counter(name string, labels ...string) (int64, bool) {
	for _, c := range s.Counters {
		if c.Name == name && labelsMatch(c.Labels, labels) {
			return c.Value, true
		}
	}
	return 0, false
}

// Gauge returns the value of the named gauge series and whether it exists.
func (s Snapshot) Gauge(name string, labels ...string) (float64, bool) {
	for _, g := range s.Gauges {
		if g.Name == name && labelsMatch(g.Labels, labels) {
			return g.Value, true
		}
	}
	return 0, false
}

// Histogram returns the named histogram series and whether it exists.
func (s Snapshot) Histogram(name string, labels ...string) (HistogramSnapshot, bool) {
	for _, h := range s.Histograms {
		if h.Name == name && labelsMatch(h.Labels, labels) {
			return h, true
		}
	}
	return HistogramSnapshot{}, false
}

// labelsMatch compares a label map against alternating key, value pairs.
func labelsMatch(m map[string]string, kv []string) bool {
	if len(m) != len(kv)/2 {
		return false
	}
	for i := 0; i+1 < len(kv); i += 2 {
		if m[kv[i]] != kv[i+1] {
			return false
		}
	}
	return true
}
