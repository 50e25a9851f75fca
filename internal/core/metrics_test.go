package core

import (
	"context"
	"math/rand"
	"strconv"
	"testing"

	"hyfd/internal/dataset"
	"hyfd/internal/inductor"
	"hyfd/internal/metrics"
	"hyfd/internal/pli"
	"hyfd/internal/relation"
	"hyfd/internal/sampler"
	"hyfd/internal/trace"
	"hyfd/internal/validator"
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

// finalTreeBytes replays the engine loop over the layers, single-threaded
// and without ranking or Guardian, and returns the footprint of the final
// result tree.
func finalTreeBytes(t *testing.T, rel *relation.Relation) int {
	t.Helper()
	ctx := context.Background()
	ds, err := dataset.Prepare(ctx, rel, dataset.Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	ix := ds.Index()
	smp := sampler.New(ix, sampler.Config{Threads: 1})
	ind := inductor.New(ix.NumCols)
	val := validator.New(ix, ind.Tree(), validator.WithThreads(1))
	var suggestions []pli.Pair
	for {
		obs, err := smp.Run(ctx, suggestions)
		if err != nil {
			t.Fatal(err)
		}
		ind.Update(obs)
		res, err := val.Run(ctx, len(obs) == 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Done {
			return ind.Tree().ApproxBytes()
		}
		suggestions = res.Suggestions
	}
}

// TestMetricsMatchStats cross-checks the metrics registry against the Stats
// telemetry and the trace events of the same run: the registry is fed from
// those events alone, so the totals must agree exactly.
func TestMetricsMatchStats(t *testing.T) {
	rel := structuredRelation(90)
	reg := metrics.NewRegistry()
	var events trace.Collector
	_, stats, err := discoverCold(rel, Config{Metrics: reg, Observer: &events, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()

	var windows int64
	var efficiencies, suggestions int
	for _, e := range events.Events() {
		switch ev := e.(type) {
		case trace.SamplingRound:
			windows = ev.Windows
			efficiencies += len(ev.WindowEfficiencies)
		case trace.ValidationLevel:
			suggestions += ev.Suggestions
		}
	}
	clusters := 0
	ds, err := dataset.Prepare(context.Background(), rel, dataset.Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	ds.Index().ForEachClusterSize(func(int) { clusters++ })

	counters := []struct {
		name string
		want int64
	}{
		{"hyfd_comparisons_total", stats.Comparisons},
		{"hyfd_validations_total", stats.Validations},
		{"hyfd_sampling_rounds_total", int64(stats.SamplingRounds)},
		{"hyfd_phase_switches_total", int64(stats.PhaseSwitches)},
		{"hyfd_sampling_windows_total", windows},
		{"hyfd_validation_suggestions_total", int64(suggestions)},
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
	if h, ok := snap.Histogram("hyfd_pli_cluster_size"); !ok || h.Count != int64(clusters) || clusters == 0 {
		t.Errorf("cluster-size histogram count = %d, want %d non-singleton clusters", h.Count, clusters)
	}
	if h, ok := snap.Histogram("hyfd_sampling_window_efficiency"); !ok || h.Count != int64(efficiencies) || efficiencies == 0 {
		t.Errorf("window efficiency histogram count = %d, want %d", h.Count, efficiencies)
	}
	if got, ok := snap.Gauge("hyfd_fdtree_bytes"); !ok || int(got) != finalTreeBytes(t, rel) {
		t.Errorf("hyfd_fdtree_bytes = %g (present=%v), want %d", got, ok, finalTreeBytes(t, rel))
	}
	if stats.FDCount == 0 || stats.Validations == 0 || windows == 0 {
		t.Fatalf("test relation must exercise sampling and validation: %+v", stats)
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

	// A ranked run marks the moment its top-k is complete exactly once.
	reg = metrics.NewRegistry()
	if _, err := Discover(context.Background(), Input{Relation: rel}, Config{Metrics: reg}, &Ranking{TopK: 1}); err != nil {
		t.Fatal(err)
	}
	if h, ok := reg.Snapshot().Histogram("hyfd_ranked_time_to_topk_seconds"); !ok || h.Count != 1 {
		t.Errorf("time-to-top-k histogram = %+v, want count 1", h)
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
