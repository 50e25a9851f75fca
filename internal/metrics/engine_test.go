package metrics

import (
	"testing"
	"time"

	"hyfd/internal/trace"
)

func TestEngineMetricsIdempotent(t *testing.T) {
	r := NewRegistry()
	a := NewEngineMetrics(r)
	b := NewEngineMetrics(r)
	a.Comparisons.Add(10)
	if b.Comparisons.Value() != 10 {
		t.Fatal("EngineMetrics on the same registry must share instruments")
	}
}

func TestEngineMetricsNilObserver(t *testing.T) {
	var m *EngineMetrics
	if m.Observer() != nil {
		t.Fatal("nil EngineMetrics must yield a nil observer")
	}
}

// TestEngineObserverBridgesEvents feeds two runs through one observer: the
// cumulative comparison, window and validation totals of the second run
// restart from zero after its PreprocessingDone, and the counters add both
// runs' deltas.
func TestEngineObserverBridgesEvents(t *testing.T) {
	r := NewRegistry()
	m := NewEngineMetrics(r)
	obs := m.Observer()

	run := func(footprint int64) {
		obs.Observe(trace.PLIBuilt{Attr: 0, Clusters: 4, ClusterSizes: []int{2, 3}, Duration: time.Millisecond})
		obs.Observe(trace.PreprocessingDone{Rows: 10, Cols: 3, Duration: time.Millisecond})
		obs.Observe(trace.SamplingRound{Round: 1, NewObservations: 4, Comparisons: 100, Windows: 3,
			WindowEfficiencies: []float64{0.5, 0.25}, FootprintBytes: 64, Duration: 2 * time.Millisecond})
		obs.Observe(trace.PhaseSwitch{From: trace.PhaseSampling, To: trace.PhaseValidation, Switches: 0})
		obs.Observe(trace.ValidationLevel{Level: 1, Candidates: 9, Valid: 6, Invalid: 3, Suggestions: 2,
			Validations: 5, FootprintBytes: 128, Duration: time.Millisecond})
		obs.Observe(trace.PhaseSwitch{From: trace.PhaseValidation, To: trace.PhaseSampling, Switches: 1})
		obs.Observe(trace.GuardianPrune{MaxLhs: 3, Interventions: 1, FootprintBytes: 96})
		obs.Observe(trace.SamplingRound{Round: 2, NewObservations: 1, Comparisons: 150, Windows: 4,
			WindowEfficiencies: []float64{0.1}, FootprintBytes: 112, Duration: time.Millisecond})
		obs.Observe(trace.ValidationLevel{Level: 2, Candidates: 2, Valid: 2, Validations: 7,
			FootprintBytes: footprint, Duration: time.Millisecond})
		obs.Observe(trace.RankedResult{Rank: 1, TopK: 2, Duration: time.Millisecond})
		obs.Observe(trace.RankedResult{Rank: 2, TopK: 2, Duration: time.Millisecond})
		obs.Observe(trace.RankedResult{Rank: 1, Duration: time.Millisecond}) // TopK 0: no top-k mark
		obs.Observe(trace.Done{FDs: 12, Duration: 5 * time.Millisecond})
	}
	run(200)
	run(160)

	checks := []struct {
		name string
		got  int64
		want int64
	}{
		{"plis built", m.PLIsBuilt.Value(), 2},
		{"sampling rounds", m.SamplingRounds.Value(), 4},
		{"new violations", m.NewViolations.Value(), 10},
		{"comparisons", m.Comparisons.Value(), 300},
		{"windows", m.SamplingWindows.Value(), 8},
		{"validation levels", m.ValidationLevels.Value(), 4},
		{"validations", m.Validations.Value(), 14},
		{"suggestions", m.Suggestions.Value(), 4},
		{"valid candidates", m.ValidCandidates.Value(), 16},
		{"invalid candidates", m.InvalidCandidates.Value(), 6},
		{"phase switches", m.PhaseSwitches.Value(), 2},
		{"guardian interventions", m.GuardianInterventions.Value(), 2},
		{"ranked emitted", m.RankedEmitted.Value(), 6},
		{"runs", m.Runs.Value(), 2},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	hists := []struct {
		name string
		h    *Histogram
		want int64
	}{
		{"cluster size", m.PLIClusterSize, 4},
		{"window efficiency", m.SamplingWindowEfficiency, 6},
		{"time to first", m.RankedTimeToFirst, 4},
		{"time to top-k", m.RankedTimeToTopK, 2},
		{"run duration", m.RunDuration, 2},
		{"sampling round duration", m.SamplingRoundDuration, 4},
		{"validation level duration", m.ValidationLevelDuration, 4},
		{"preprocessing duration", m.PreprocessingDuration, 2},
	}
	for _, c := range hists {
		if got := c.h.Count(); got != c.want {
			t.Errorf("%s histogram count = %d, want %d", c.name, got, c.want)
		}
	}
	if got := m.PLIClusterSize.Sum(); got != 10 {
		t.Errorf("cluster size sum = %g, want 10", got)
	}
	if m.FDsDiscovered.Value() != 12 {
		t.Errorf("fds gauge = %g, want 12", m.FDsDiscovered.Value())
	}
	if m.FDTreeBytes.Value() != 160 {
		t.Errorf("fdtree bytes = %g, want the last event's 160", m.FDTreeBytes.Value())
	}
	// Runtime gauges are sampled on every event.
	if m.HeapInuse.Value() <= 0 || m.Goroutines.Value() <= 0 {
		t.Error("runtime gauges not sampled")
	}
}
