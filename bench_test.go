// Benchmarks regenerating the HyFD paper's evaluation (§10) at in-process,
// CI-friendly scales — one testing.B benchmark per table and figure. Each
// sub-benchmark reports ns/op plus custom metrics (FD count, and for the
// memory experiment the sampled peak heap). The cmd/bench binary runs the
// same experiments at larger scales with real time/memory limits.
//
//	go test -bench=. -benchmem
package hyfd_test

import (
	"context"
	"fmt"
	"testing"

	"hyfd/internal/core"
	"hyfd/internal/harness"
	"hyfd/internal/pli"
	"hyfd/internal/relation"
)

// benchSpec runs one harness job repeatedly inside a sub-benchmark.
func benchSpec(b *testing.B, spec harness.Spec) {
	b.Helper()
	rel, err := harness.Materialize(spec)
	if err != nil {
		b.Fatal(err)
	}
	var last harness.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		last = harness.Measure(context.Background(), spec, rel)
		if last.Err != "" {
			b.Fatal(last.Err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(last.FDs), "FDs")
}

// fastBaselines are the baselines cheap enough to benchmark on every
// configuration; the full eight-algorithm grid (with TL/ML handling for
// the expensive ones) is cmd/bench territory.
var fastBaselines = []string{"Tane", "Dfd", "Fdep", harness.HyFDName}

// BenchmarkFig6RowScalability — runtime vs row count on the ncvoter
// (19 columns) and uniprot (30 columns) analogs.
func BenchmarkFig6RowScalability(b *testing.B) {
	for _, ds := range []struct {
		name string
		cols int
	}{{"ncvoter", 19}, {"uniprot", 30}} {
		for _, rows := range []int{250, 1000} {
			for _, alg := range fastBaselines {
				b.Run(fmt.Sprintf("%s/rows=%d/%s", ds.name, rows, alg), func(b *testing.B) {
					benchSpec(b, harness.Spec{Algorithm: alg, Dataset: ds.name, Rows: rows, Cols: ds.cols})
				})
			}
		}
	}
}

// BenchmarkFig7ColumnScalability — runtime vs column count on the uniprot
// and plista analogs at fixed 1 000 rows (paper setting); 250 rows here.
func BenchmarkFig7ColumnScalability(b *testing.B) {
	for _, ds := range []string{"uniprot", "plista"} {
		for _, cols := range []int{10, 20, 30} {
			for _, alg := range fastBaselines {
				b.Run(fmt.Sprintf("%s/cols=%d/%s", ds, cols, alg), func(b *testing.B) {
					benchSpec(b, harness.Spec{Algorithm: alg, Dataset: ds, Rows: 250, Cols: cols})
				})
			}
		}
	}
}

// BenchmarkTable1Datasets — all eight algorithms on the small Table 1
// datasets, HyFD alone on the larger ones (where the paper reports TL/ML
// for most baselines).
func BenchmarkTable1Datasets(b *testing.B) {
	// Small datasets at their natural (paper) size: all eight algorithms.
	small := []string{"iris", "balance-scale", "bridges", "echocardiogram", "breast-cancer", "hepatitis"}
	for _, name := range small {
		for _, alg := range harness.AlgorithmNames {
			if alg == "Dfd" && name == "hepatitis" {
				continue // Dfd needs minutes here (the paper: 327 s)
			}
			b.Run(fmt.Sprintf("%s/%s", name, alg), func(b *testing.B) {
				benchSpec(b, harness.Spec{Algorithm: alg, Dataset: name})
			})
		}
	}
	// Larger datasets, row-capped: HyFD only (baselines TL there, Table 1).
	larger := []string{"chess", "abalone", "nursery", "adult", "letter", "ncvoter"}
	for _, name := range larger {
		b.Run(fmt.Sprintf("%s/%s", name, harness.HyFDName), func(b *testing.B) {
			benchSpec(b, harness.Spec{Algorithm: harness.HyFDName, Dataset: name, Rows: 1000})
		})
	}
}

// BenchmarkTable2MultiThreading — HyFD single- vs multi-threaded on the
// large-dataset analogs (row-capped).
func BenchmarkTable2MultiThreading(b *testing.B) {
	for _, name := range []string{"TPC-H.lineitem", "SAP_R3.ZBC00DT", "NCVoter.statewide", "CD.cd"} {
		for _, threads := range []int{1, 8} {
			b.Run(fmt.Sprintf("%s/threads=%d", name, threads), func(b *testing.B) {
				benchSpec(b, harness.Spec{
					Algorithm: harness.HyFDName, Dataset: name, Rows: 1000, Threads: threads,
				})
			})
		}
	}
}

// BenchmarkTable3Memory — peak heap of TANE, DFD, FDEP and HyFD; the
// sampled peak is reported as the peak-MB metric next to -benchmem's
// allocation counters.
func BenchmarkTable3Memory(b *testing.B) {
	cases := []struct {
		name string
		algs []string
	}{
		// Dfd needs minutes on hepatitis and letter (cf. Table 1), so the
		// in-process bench keeps it to adult; cmd/bench covers the rest
		// under its time limit.
		{"hepatitis", []string{"Tane", "Fdep", harness.HyFDName}},
		{"adult", []string{"Tane", "Dfd", "Fdep", harness.HyFDName}},
		{"letter", []string{"Tane", "Fdep", harness.HyFDName}},
	}
	for _, c := range cases {
		name := c.name
		for _, alg := range c.algs {
			b.Run(fmt.Sprintf("%s/%s", name, alg), func(b *testing.B) {
				spec := harness.Spec{Algorithm: alg, Dataset: name, Rows: 1000}
				if name == "hepatitis" {
					spec.Rows = 0 // natural size (155 rows)
				}
				rel, err := harness.Materialize(spec)
				if err != nil {
					b.Fatal(err)
				}
				var peak uint64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					r := harness.Measure(context.Background(), spec, rel)
					if r.Err != "" {
						b.Fatal(r.Err)
					}
					if r.PeakHeap > peak {
						peak = r.PeakHeap
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(peak)/(1<<20), "peak-MB")
			})
		}
	}
}

// BenchmarkFig8EfficiencyThreshold — HyFD's runtime across its only
// parameter on the ncvoter-statewide analog; switch counts are reported as
// a metric.
func BenchmarkFig8EfficiencyThreshold(b *testing.B) {
	for _, th := range []float64{0.0001, 0.001, 0.01, 0.1, 1.0} {
		b.Run(fmt.Sprintf("threshold=%g%%", th*100), func(b *testing.B) {
			spec := harness.Spec{
				Algorithm: harness.HyFDName, Dataset: "NCVoter.statewide",
				Rows: 1000, Threshold: th,
			}
			rel, err := harness.Materialize(spec)
			if err != nil {
				b.Fatal(err)
			}
			var last harness.Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				last = harness.Measure(context.Background(), spec, rel)
				if last.Err != "" {
					b.Fatal(last.Err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(last.Switches), "switches")
			b.ReportMetric(float64(last.FDs), "FDs")
		})
	}
}

// BenchmarkPreprocessing isolates the Preprocessor (PLI construction +
// record compression), the fixed cost every algorithm pays.
func BenchmarkPreprocessing(b *testing.B) {
	rel, err := harness.Materialize(harness.Spec{Dataset: "ncvoter", Rows: 1000})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pli.NewIndex(rel, relation.NullEqualsNull)
	}
}

// BenchmarkAblations quantifies HyFD's individual design decisions
// (DESIGN.md §2): focused sampling, comparison suggestions, and direct
// validation, each disabled in isolation against the full algorithm.
func BenchmarkAblations(b *testing.B) {
	spec := harness.Spec{Algorithm: harness.HyFDName, Dataset: "ncvoter", Rows: 1000}
	rel, err := harness.Materialize(spec)
	if err != nil {
		b.Fatal(err)
	}
	variants := []struct {
		name string
		cfg  core.Config
	}{
		{"full", core.Config{}},
		{"unfocused-sampling", core.Config{UnfocusedSampling: true}},
		{"no-suggestions", core.Config{NoSuggestions: true}},
		{"intersection-validation", core.Config{IntersectionValidation: true}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			var comparisons int64
			for i := 0; i < b.N; i++ {
				res, err := core.Discover(context.Background(), core.Input{Relation: rel}, v.cfg, nil)
				if err != nil {
					b.Fatal(err)
				}
				comparisons = res.Stats.Comparisons
			}
			b.ReportMetric(float64(comparisons), "comparisons")
		})
	}
}
