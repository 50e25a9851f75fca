package core

import (
	"math/rand"
	"strconv"
	"testing"

	"hyfd/internal/metrics"
	"hyfd/internal/relation"
)

// structuredRelation has both non-singleton PLI clusters and a non-empty FD
// set (id is a key; code determines mod5 and mod3), so every instrument
// family gets fed.
func structuredRelation(rows int) *relation.Relation {
	rel := relation.New("structured", []string{"id", "mod5", "mod3", "code"})
	for i := 0; i < rows; i++ {
		rel.AppendRow([]string{
			strconv.Itoa(i),
			strconv.Itoa(i % 5),
			strconv.Itoa(i % 3),
			strconv.Itoa(i % 15),
		})
	}
	return rel
}

// TestMetricsMatchStats cross-checks the metrics registry against the Stats
// telemetry of the same run: both are fed from the engine, so the totals
// must agree exactly.
func TestMetricsMatchStats(t *testing.T) {
	rel := structuredRelation(90)
	reg := metrics.NewRegistry()
	_, stats, err := discoverCold(rel, Config{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()

	counters := []struct {
		name string
		want int64
	}{
		{"hyfd_comparisons_total", stats.Comparisons},
		{"hyfd_validations_total", stats.Validations},
		{"hyfd_sampling_rounds_total", int64(stats.SamplingRounds)},
		{"hyfd_phase_switches_total", int64(stats.PhaseSwitches)},
		{"hyfd_runs_total", 1},
	}
	for _, c := range counters {
		got, ok := snap.Counter(c.name)
		if !ok || got != c.want {
			t.Errorf("%s = %d (present=%v), want %d", c.name, got, ok, c.want)
		}
	}
	if got, ok := snap.Gauge("hyfd_fds_discovered"); !ok || int(got) != stats.FDCount {
		t.Errorf("hyfd_fds_discovered = %g, want %d", got, stats.FDCount)
	}
	if h, ok := snap.Histogram("hyfd_run_duration_seconds"); !ok || h.Count != 1 {
		t.Errorf("run duration histogram count = %+v", h)
	}
	if h, ok := snap.Histogram("hyfd_pli_cluster_size"); !ok || h.Count == 0 {
		t.Errorf("cluster-size histogram not fed: %+v", h)
	}
	if h, ok := snap.Histogram("hyfd_sampling_window_efficiency"); !ok || h.Count == 0 {
		t.Errorf("window efficiency histogram not fed: %+v", h)
	}
	if stats.FDCount == 0 || stats.Validations == 0 {
		t.Fatalf("test relation must exercise validation: %+v", stats)
	}
	// Valid candidate verdicts must cover at least the final FD set.
	valid, _ := snap.Counter("hyfd_validation_candidates_total", "verdict", "valid")
	if valid < int64(stats.FDCount) {
		t.Errorf("valid candidates = %d, want >= fd count %d", valid, stats.FDCount)
	}

	// A second run on the same registry accumulates.
	if _, _, err := discoverCold(rel, Config{Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	if got, _ := reg.Snapshot().Counter("hyfd_runs_total"); got != 2 {
		t.Errorf("runs after second discovery = %d, want 2", got)
	}
}

// TestMetricsNilRegistry pins the pay-for-what-you-use contract: a nil
// registry must not change behavior (and must not panic anywhere).
func TestMetricsNilRegistry(t *testing.T) {
	rel := randomRelation(rand.New(rand.NewSource(7)), 50, 5, 3)
	fds, _, err := discoverCold(rel, Config{})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	metered, _, err := discoverCold(rel, Config{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if !fds.Equal(metered) {
		t.Fatal("metering changed the discovered FD set")
	}
}
