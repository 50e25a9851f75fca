package metrics

import (
	"runtime"

	"hyfd/internal/trace"
)

// EngineMetrics bundles every instrument the discovery engine maintains,
// registered under the stable hyfd_* names below. Construction is
// idempotent per Registry — NewEngineMetrics on the same registry returns
// handles to the same underlying instruments, so repeated runs accumulate
// and external consumers (CLI progress rendering, tests) can obtain the
// exact handles the engine updates.
//
// The Observer bridge is the only writer of these instruments: every
// quantity reaches it on the engine's trace-event stream, and it samples
// the Go runtime gauges on each event.
type EngineMetrics struct {
	// Phase 0: ingest and preprocessing.
	IngestedRows     *Counter   // hyfd_ingest_rows_total
	IngestDuration   *Histogram // hyfd_ingest_duration_seconds
	PLIsBuilt        *Counter   // hyfd_plis_built_total
	PLIBuildDuration *Histogram // hyfd_pli_build_duration_seconds

	// Phase 1: sampling.
	Comparisons              *Counter   // hyfd_comparisons_total
	SamplingRounds           *Counter   // hyfd_sampling_rounds_total
	SamplingRoundDuration    *Histogram // hyfd_sampling_round_duration_seconds
	NewViolations            *Counter   // hyfd_sampling_new_violations_total
	SamplingWindows          *Counter   // hyfd_sampling_windows_total
	SamplingWindowEfficiency *Histogram // hyfd_sampling_window_efficiency

	// Phase 2: validation.
	Validations             *Counter   // hyfd_validations_total
	ValidationLevels        *Counter   // hyfd_validation_levels_total
	ValidationLevelDuration *Histogram // hyfd_validation_level_duration_seconds
	ValidCandidates         *Counter   // hyfd_validation_candidates_total{verdict="valid"}
	InvalidCandidates       *Counter   // hyfd_validation_candidates_total{verdict="invalid"}
	Suggestions             *Counter   // hyfd_validation_suggestions_total

	// Orchestration and memory.
	PhaseSwitches         *Counter   // hyfd_phase_switches_total
	GuardianInterventions *Counter   // hyfd_guardian_interventions_total
	FDTreeBytes           *Gauge     // hyfd_fdtree_bytes
	PreprocessingDuration *Histogram // hyfd_preprocessing_duration_seconds
	PLIClusterSize        *Histogram // hyfd_pli_cluster_size
	DatasetReuses         *Counter   // hyfd_dataset_reuse_total

	// Ranked (top-k) mode.
	RankedEmitted     *Counter   // hyfd_ranked_emitted_total
	RankedTimeToFirst *Histogram // hyfd_ranked_time_to_first_seconds
	RankedTimeToTopK  *Histogram // hyfd_ranked_time_to_topk_seconds

	// Incremental maintenance (delta snapshots).
	IncrementalRuns        *Counter   // hyfd_incremental_runs_total
	IncrementalInsertRows  *Counter   // hyfd_incremental_delta_rows_total{kind="insert"}
	IncrementalDeleteRows  *Counter   // hyfd_incremental_delta_rows_total{kind="delete"}
	IncrementalSharedAttrs *Counter   // hyfd_incremental_shared_attrs_total
	IncrementalBreakable   *Counter   // hyfd_incremental_breakable_total
	IncrementalChecks      *Counter   // hyfd_incremental_checks_total
	IncrementalSpecialized *Counter   // hyfd_incremental_specialized_total
	IncrementalGeneralized *Counter   // hyfd_incremental_generalized_total
	IncrementalApplyTime   *Histogram // hyfd_incremental_apply_duration_seconds
	IncrementalDuration    *Histogram // hyfd_incremental_duration_seconds

	// Per-run outcomes.
	Runs          *Counter   // hyfd_runs_total
	RunDuration   *Histogram // hyfd_run_duration_seconds
	FDsDiscovered *Gauge     // hyfd_fds_discovered

	// Go runtime telemetry, sampled on each trace event.
	HeapInuse  *Gauge // hyfd_go_heap_inuse_bytes
	GCCycles   *Gauge // hyfd_go_gc_cycles_total
	Goroutines *Gauge // hyfd_go_goroutines
}

// NewEngineMetrics registers (or re-resolves) the engine's instrument set
// on the registry. A nil registry returns nil, whose Observer is nil — the
// unmetered fast path.
func NewEngineMetrics(r *Registry) *EngineMetrics {
	if r == nil {
		return nil
	}
	candidates := r.CounterVec("hyfd_validation_candidates_total",
		"FD candidates checked during Phase 2, by verdict.", "verdict")
	deltaRows := r.CounterVec("hyfd_incremental_delta_rows_total",
		"Delta rows applied to dataset snapshots, by kind.", "kind")
	return &EngineMetrics{
		IngestedRows: r.Counter("hyfd_ingest_rows_total",
			"Rows parsed from external input into relations."),
		IngestDuration: r.Histogram("hyfd_ingest_duration_seconds",
			"Wall-clock duration of each relation ingest.", nil),
		PLIsBuilt: r.Counter("hyfd_plis_built_total",
			"Per-attribute PLIs constructed during preprocessing."),
		PLIBuildDuration: r.Histogram("hyfd_pli_build_duration_seconds",
			"Wall-clock build latency of each attribute's PLI.", nil),

		Comparisons: r.Counter("hyfd_comparisons_total",
			"Record-pair comparisons performed by the sampler."),
		SamplingRounds: r.Counter("hyfd_sampling_rounds_total",
			"Completed Phase 1 sampling rounds."),
		SamplingRoundDuration: r.Histogram("hyfd_sampling_round_duration_seconds",
			"Wall-clock duration of each sampling round including induction.", nil),
		NewViolations: r.Counter("hyfd_sampling_new_violations_total",
			"Distinct FD-violations first observed by sampling."),
		SamplingWindows: r.Counter("hyfd_sampling_windows_total",
			"Cluster-window runs executed by the sampler."),
		SamplingWindowEfficiency: r.Histogram("hyfd_sampling_window_efficiency",
			"New violations per comparison of each window run.", RatioBuckets),

		Validations: r.Counter("hyfd_validations_total",
			"FDTree node validations performed by the validator."),
		ValidationLevels: r.Counter("hyfd_validation_levels_total",
			"Completed Phase 2 lattice levels."),
		ValidationLevelDuration: r.Histogram("hyfd_validation_level_duration_seconds",
			"Wall-clock duration of each validation level.", nil),
		ValidCandidates:   candidates.With("valid"),
		InvalidCandidates: candidates.With("invalid"),
		Suggestions: r.Counter("hyfd_validation_suggestions_total",
			"Violating record pairs handed back to the sampler."),

		PhaseSwitches: r.Counter("hyfd_phase_switches_total",
			"Returns from Phase 2 (validation) into Phase 1 (sampling)."),
		GuardianInterventions: r.Counter("hyfd_guardian_interventions_total",
			"Memory-Guardian prunes of the result tree."),
		FDTreeBytes: r.Gauge("hyfd_fdtree_bytes",
			"Approximate live footprint of the result FDTree."),
		PreprocessingDuration: r.Histogram("hyfd_preprocessing_duration_seconds",
			"Wall-clock duration of PLI and compressed-record construction.", nil),
		PLIClusterSize: r.Histogram("hyfd_pli_cluster_size",
			"Size distribution of non-singleton PLI clusters.", SizeBuckets),
		DatasetReuses: r.Counter("hyfd_dataset_reuse_total",
			"Warm runs that reused an already-prepared Dataset instead of rebuilding PLIs."),

		RankedEmitted: r.Counter("hyfd_ranked_emitted_total",
			"Ranked-mode results whose final rank stabilized and streamed out."),
		RankedTimeToFirst: r.Histogram("hyfd_ranked_time_to_first_seconds",
			"Elapsed run time until a ranked run's first result stabilized.", nil),
		RankedTimeToTopK: r.Histogram("hyfd_ranked_time_to_topk_seconds",
			"Elapsed run time until a ranked run's full top-k stabilized.", nil),

		IncrementalRuns: r.Counter("hyfd_incremental_runs_total",
			"Completed incremental FD maintenance runs."),
		IncrementalInsertRows: deltaRows.With("insert"),
		IncrementalDeleteRows: deltaRows.With("delete"),
		IncrementalSharedAttrs: r.Counter("hyfd_incremental_shared_attrs_total",
			"Attributes whose cluster lists were structurally shared with the parent snapshot across all Apply calls."),
		IncrementalBreakable: r.Counter("hyfd_incremental_breakable_total",
			"Base-cover FDs the deltas' inserted records could have invalidated."),
		IncrementalChecks: r.Counter("hyfd_incremental_checks_total",
			"Direct-refinement validations performed by incremental maintenance."),
		IncrementalSpecialized: r.Counter("hyfd_incremental_specialized_total",
			"FD candidates added while specializing broken FDs."),
		IncrementalGeneralized: r.Counter("hyfd_incremental_generalized_total",
			"FDs added by delete-driven re-generalization."),
		IncrementalApplyTime: r.Histogram("hyfd_incremental_apply_duration_seconds",
			"Wall-clock duration of each Dataset.Apply snapshot advance.", nil),
		IncrementalDuration: r.Histogram("hyfd_incremental_duration_seconds",
			"Wall-clock duration of each incremental maintenance run.", nil),

		Runs: r.Counter("hyfd_runs_total",
			"Completed discovery runs."),
		RunDuration: r.Histogram("hyfd_run_duration_seconds",
			"Total wall-clock duration of each discovery run.", nil),
		FDsDiscovered: r.Gauge("hyfd_fds_discovered",
			"Minimal FDs found by the most recent run."),

		HeapInuse: r.Gauge("hyfd_go_heap_inuse_bytes",
			"Heap bytes in use, sampled on each trace event."),
		GCCycles: r.Gauge("hyfd_go_gc_cycles_total",
			"Completed GC cycles, sampled on each trace event."),
		Goroutines: r.Gauge("hyfd_go_goroutines",
			"Live goroutines, sampled on each trace event."),
	}
}

// Observer bridges the engine's trace-event stream into the instruments.
// It is invoked synchronously from the coordinating goroutine (see
// internal/trace) and additionally samples the Go runtime gauges on each
// event. The events carry comparisons, windows and validations as run
// totals; the observer turns them into counter deltas with per-run state
// that PreprocessingDone, the event opening every run, resets. A nil
// receiver yields a nil Observer, which trace.Multi skips.
func (m *EngineMetrics) Observer() trace.Observer {
	if m == nil {
		return nil
	}
	var comparisons, windows, validations int64 // the current run's totals so far
	return trace.ObserverFunc(func(e trace.Event) {
		switch ev := e.(type) {
		case trace.IngestDone:
			m.IngestedRows.Add(int64(ev.Rows))
			m.IngestDuration.Observe(ev.Duration.Seconds())
		case trace.PLIBuilt:
			m.PLIsBuilt.Inc()
			m.PLIBuildDuration.Observe(ev.Duration.Seconds())
			for _, size := range ev.ClusterSizes {
				m.PLIClusterSize.Observe(float64(size))
			}
		case trace.PreprocessingDone:
			comparisons, windows, validations = 0, 0, 0
			if ev.Warm {
				// A reused Dataset did no preprocessing work of its own;
				// recording its ~zero duration would skew the histogram.
				m.DatasetReuses.Inc()
			} else {
				m.PreprocessingDuration.Observe(ev.Duration.Seconds())
			}
		case trace.SamplingRound:
			m.SamplingRounds.Inc()
			m.SamplingRoundDuration.Observe(ev.Duration.Seconds())
			m.NewViolations.Add(int64(ev.NewObservations))
			m.Comparisons.Add(ev.Comparisons - comparisons)
			m.SamplingWindows.Add(ev.Windows - windows)
			comparisons, windows = ev.Comparisons, ev.Windows
			for _, eff := range ev.WindowEfficiencies {
				m.SamplingWindowEfficiency.Observe(eff)
			}
			m.FDTreeBytes.Set(float64(ev.FootprintBytes))
		case trace.PhaseSwitch:
			if ev.From == trace.PhaseValidation {
				m.PhaseSwitches.Inc()
			}
		case trace.ValidationLevel:
			m.ValidationLevels.Inc()
			m.ValidationLevelDuration.Observe(ev.Duration.Seconds())
			m.ValidCandidates.Add(int64(ev.Valid))
			m.InvalidCandidates.Add(int64(ev.Invalid))
			m.Suggestions.Add(int64(ev.Suggestions))
			m.Validations.Add(ev.Validations - validations)
			validations = ev.Validations
			m.FDTreeBytes.Set(float64(ev.FootprintBytes))
		case trace.GuardianPrune:
			m.GuardianInterventions.Inc()
			m.FDTreeBytes.Set(float64(ev.FootprintBytes))
		case trace.RankedResult:
			m.RankedEmitted.Inc()
			if ev.Rank == 1 {
				m.RankedTimeToFirst.Observe(ev.Duration.Seconds())
			}
			if ev.TopK > 0 && ev.Rank == ev.TopK {
				m.RankedTimeToTopK.Observe(ev.Duration.Seconds())
			}
		case trace.Done:
			m.Runs.Inc()
			m.RunDuration.Observe(ev.Duration.Seconds())
			m.FDsDiscovered.Set(float64(ev.FDs))
		case trace.DeltaApplied:
			m.IncrementalInsertRows.Add(int64(ev.Inserts))
			m.IncrementalDeleteRows.Add(int64(ev.Deletes))
			m.IncrementalSharedAttrs.Add(int64(ev.SharedAttrs))
			m.IncrementalApplyTime.Observe(ev.Duration.Seconds())
		case trace.IncrementalCandidates:
			m.IncrementalBreakable.Add(int64(ev.Breakable))
		case trace.IncrementalDone:
			m.IncrementalRuns.Inc()
			m.IncrementalChecks.Add(int64(ev.Checks))
			m.IncrementalSpecialized.Add(int64(ev.Specialized))
			m.IncrementalGeneralized.Add(int64(ev.Generalized))
			m.IncrementalDuration.Observe(ev.Duration.Seconds())
			m.FDsDiscovered.Set(float64(ev.FDs))
		}
		m.sampleRuntime()
	})
}

// sampleRuntime refreshes the Go runtime gauges. Events are coarse-grained
// (one per round or level), so the ReadMemStats cost stays negligible
// relative to the work between events.
func (m *EngineMetrics) sampleRuntime() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.HeapInuse.Set(float64(ms.HeapInuse))
	m.GCCycles.Set(float64(ms.NumGC))
	m.Goroutines.Set(float64(runtime.NumGoroutine()))
}
