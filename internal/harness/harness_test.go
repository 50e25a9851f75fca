package harness

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"hyfd/internal/fd"
	"hyfd/internal/relation"
)

func TestExecuteInProcessHyFD(t *testing.T) {
	res := ExecuteInProcess(context.Background(), Spec{Algorithm: HyFDName, Dataset: "ncvoter", Rows: 300})
	if res.Err != "" {
		t.Fatalf("err: %s", res.Err)
	}
	if res.FDs <= 0 || res.Seconds < 0 || res.PeakHeap == 0 {
		t.Fatalf("result = %+v", res)
	}
	if res.Switches < 0 {
		t.Fatalf("HyFD run must report switches: %+v", res)
	}
}

func TestExecuteInProcessBaselineMatchesHyFD(t *testing.T) {
	for _, alg := range []string{"Tane", "Fdep"} {
		res := ExecuteInProcess(context.Background(), Spec{Algorithm: alg, Dataset: "iris", Rows: 150})
		if res.Err != "" {
			t.Fatalf("%s err: %s", alg, res.Err)
		}
		hy := ExecuteInProcess(context.Background(), Spec{Algorithm: HyFDName, Dataset: "iris", Rows: 150})
		if res.FDs != hy.FDs {
			t.Fatalf("%s found %d FDs, HyFD %d", alg, res.FDs, hy.FDs)
		}
	}
}

func TestExecuteInProcessErrors(t *testing.T) {
	if res := ExecuteInProcess(context.Background(), Spec{Algorithm: HyFDName, Dataset: "nope"}); res.Err == "" {
		t.Fatal("unknown dataset accepted")
	}
	if res := ExecuteInProcess(context.Background(), Spec{Algorithm: "NoAlg", Dataset: "iris"}); res.Err == "" {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestMaterializeCapsRowsAndCols(t *testing.T) {
	rel, err := Materialize(Spec{Dataset: "uniprot", Rows: 200, Cols: 10})
	if err != nil {
		t.Fatal(err)
	}
	if rel.NumRows() > 200 || rel.NumCols() != 10 {
		t.Fatalf("dims %dx%d", rel.NumRows(), rel.NumCols())
	}
	if rel.Name != "uniprot" {
		t.Fatalf("name %q", rel.Name)
	}
}

// TestIncrementalMeasurement runs the incremental path in-process and pins
// its exactness contract: the maintained cover's digest equals the cold
// run's over the same final relation.
func TestIncrementalMeasurement(t *testing.T) {
	cold := ExecuteInProcess(context.Background(), Spec{Algorithm: HyFDName, Dataset: "bridges", Rows: 300, Threads: 1, Digest: true})
	if cold.Err != "" {
		t.Fatalf("cold run: %s", cold.Err)
	}
	if cold.CoverDigest == "" {
		t.Fatal("Digest spec produced no cover digest")
	}
	inc := ExecuteInProcess(context.Background(), Spec{Algorithm: HyFDName, Dataset: "bridges", Rows: 300, Threads: 1,
		DeltaRows: 3, Incremental: true, Digest: true})
	if inc.Err != "" {
		t.Fatalf("incremental run: %s", inc.Err)
	}
	if inc.CoverDigest != cold.CoverDigest || inc.FDs != cold.FDs {
		t.Fatalf("incremental diverges from cold: %d FDs digest %s, want %d FDs digest %s",
			inc.FDs, inc.CoverDigest, cold.FDs, cold.CoverDigest)
	}
	if inc.PrepSeconds <= 0 {
		t.Fatal("incremental run did not report the excluded base cost")
	}
	if bad := ExecuteInProcess(context.Background(), Spec{Algorithm: HyFDName, Dataset: "bridges", Rows: 300,
		Incremental: true}); bad.Err == "" {
		t.Fatal("incremental spec without delta_rows accepted")
	}
}

func TestExperimentsDefinitions(t *testing.T) {
	opts := DefaultOptions()
	exps := Experiments(opts)
	if len(exps) != 10 {
		t.Fatalf("%d experiments", len(exps))
	}
	ids := map[string]bool{}
	for _, e := range exps {
		if len(e.Jobs) == 0 || e.Render == nil || e.Title == "" {
			t.Fatalf("experiment %q incomplete", e.ID)
		}
		ids[e.ID] = true
	}
	for _, id := range []string{"fig6", "fig7", "table1", "table2", "table3", "fig8", "prep", "dataset_reuse", "ranked", "incremental"} {
		if !ids[id] {
			t.Fatalf("experiment %q missing", id)
		}
	}
	if _, err := ByID("fig6", opts); err != nil {
		t.Fatal(err)
	}
	if _, err := ByID("nope", opts); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	// Table 1 covers all 17 datasets × 8 algorithms.
	t1, _ := ByID("table1", opts)
	if len(t1.Jobs) != 17*8 {
		t.Fatalf("table1 jobs = %d", len(t1.Jobs))
	}
}

func TestRenderers(t *testing.T) {
	opts := DefaultOptions()
	for _, e := range Experiments(opts) {
		// Fabricate one result per job (no real runs) and render.
		var results []Result
		for i, j := range e.Jobs {
			r := Result{Spec: j, Seconds: float64(i) * 0.1, FDs: i, Switches: 3}
			switch i % 5 {
			case 3:
				r.TimedOut = true
			case 4:
				r.Err = "boom"
			}
			results = append(results, r)
		}
		var buf bytes.Buffer
		e.Render(&buf, results)
		out := buf.String()
		if len(out) == 0 {
			t.Fatalf("%s rendered nothing", e.ID)
		}
		if !strings.Contains(out, "TL") && strings.Contains(e.ID, "table1") {
			t.Fatalf("%s output lacks TL marker:\n%s", e.ID, out)
		}
	}
}

func TestMeasureOnCustomRelation(t *testing.T) {
	rel := relation.New("tiny", []string{"A", "B"})
	rel.AppendRow([]string{"1", "1"})
	rel.AppendRow([]string{"1", "1"})
	res := Measure(context.Background(), Spec{Algorithm: "Fdep", Dataset: "tiny"}, rel)
	if res.Err != "" || res.FDs != 2 {
		t.Fatalf("res = %+v", res)
	}
	// Sanity: matches the reference on the same relation.
	want := fd.BruteForce(rel, relation.NullEqualsNull)
	if res.FDs != want.Size() {
		t.Fatalf("FDs = %d, want %d", res.FDs, want.Size())
	}
}

func TestMaterializeScalesPastNaturalSize(t *testing.T) {
	// Fig 6 sweeps uniprot past its catalog size of 1000 rows.
	rel, err := Materialize(Spec{Dataset: "uniprot", Rows: 2500, Cols: 10})
	if err != nil {
		t.Fatal(err)
	}
	if rel.NumRows() != 2500 {
		t.Fatalf("rows = %d, want 2500", rel.NumRows())
	}
}

func TestPrepOnlyMeasuresPreprocessing(t *testing.T) {
	res := ExecuteInProcess(context.Background(), Spec{
		Algorithm: HyFDName, Dataset: "uniprot",
		Rows: 300, Cols: 16, Threads: 4, PrepOnly: true,
	})
	if res.Err != "" {
		t.Fatal(res.Err)
	}
	if res.Seconds <= 0 {
		t.Fatalf("prep run measured %v seconds", res.Seconds)
	}
	if res.FDs != 0 || res.Stats != nil {
		t.Fatalf("prep-only run produced discovery output: %+v", res)
	}
}

func TestPrepExperimentDerivesSpeedups(t *testing.T) {
	e, err := ByID("prep", DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if e.Derive == nil {
		t.Fatal("prep experiment has no Derive")
	}
	// Synthetic results: 2 threads twice as fast as 1.
	results := []Result{
		{Spec: Spec{Threads: 1, PrepOnly: true}, Seconds: 2.0},
		{Spec: Spec{Threads: 2, PrepOnly: true}, Seconds: 1.0},
	}
	d := e.Derive(results)
	if d["prep_seconds_1t"] != 2.0 {
		t.Fatalf("prep_seconds_1t = %v", d["prep_seconds_1t"])
	}
	if d["prep_speedup_2t"] != 2.0 {
		t.Fatalf("prep_speedup_2t = %v", d["prep_speedup_2t"])
	}
	a := NewArtifact(e, results)
	if a.Derived["prep_speedup_2t"] != 2.0 {
		t.Fatalf("artifact derived = %v", a.Derived)
	}
}
