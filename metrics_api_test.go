package hyfd_test

import (
	"context"
	"strings"
	"testing"

	"hyfd"
)

// TestMetricsPublicAPI meters a run through the public surface and checks
// both exposition formats work end to end.
func TestMetricsPublicAPI(t *testing.T) {
	rel, err := hyfd.ReadCSV("class", strings.NewReader(classCSV()), hyfd.CSVOptions{HasHeader: true})
	if err != nil {
		t.Fatal(err)
	}
	reg := hyfd.NewMetricsRegistry()
	res, err := hyfd.Run(context.Background(), hyfd.Request{Relation: rel, Options: hyfd.Options{Metrics: reg}})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if runs, ok := snap.Counter("hyfd_runs_total"); !ok || runs != 1 {
		t.Fatalf("hyfd_runs_total = %d, %v", runs, ok)
	}
	if fds, ok := snap.Gauge("hyfd_fds_discovered"); !ok || int(fds) != len(res.FDs) {
		t.Fatalf("hyfd_fds_discovered = %g, want %d", fds, len(res.FDs))
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "# TYPE hyfd_comparisons_total counter") {
		t.Fatalf("exposition missing comparisons family:\n%s", sb.String())
	}
}

// TestBaselineStatsHaveTotalTime pins the baseline timing fix: baseline
// runs must report wall-clock TotalTime even though the baselines emit no
// engine trace events. Cold afd and ucc runs must count their own
// preprocessing in TotalTime, as HyFD and the baselines do.
func TestBaselineStatsHaveTotalTime(t *testing.T) {
	rel, err := hyfd.ReadCSV("class", strings.NewReader(classCSV()), hyfd.CSVOptions{HasHeader: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range hyfd.Algorithms() {
		res, err := hyfd.Run(context.Background(), hyfd.Request{Relation: rel, Algorithm: name})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Stats.TotalTime <= 0 {
			t.Errorf("%s: TotalTime = %v, want > 0", name, res.Stats.TotalTime)
		}
	}
	for _, mode := range []hyfd.Mode{hyfd.ModeAFD, hyfd.ModeUCC} {
		res, err := hyfd.Run(context.Background(), hyfd.Request{Relation: rel, Mode: mode})
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if st := res.Stats; st.PreprocessingTime <= 0 || st.TotalTime < st.PreprocessingTime {
			t.Errorf("cold %s: TotalTime = %v, PreprocessingTime = %v, want TotalTime >= PreprocessingTime > 0",
				mode, st.TotalTime, st.PreprocessingTime)
		}
	}
}
