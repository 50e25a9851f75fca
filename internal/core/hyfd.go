// Package core orchestrates the HyFD algorithm (§4, Fig. 2): the
// Preprocessor builds PLIs and compressed records, then control alternates
// between Phase 1 (Sampler + Inductor, column-efficient) and Phase 2
// (Validator, row-efficient) until the Validator confirms every candidate.
// An optional memory Guardian bounds the result size.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"hyfd/internal/dataset"
	"hyfd/internal/fd"
	"hyfd/internal/guardian"
	"hyfd/internal/inductor"
	"hyfd/internal/metrics"
	"hyfd/internal/pli"
	"hyfd/internal/rank"
	"hyfd/internal/relation"
	"hyfd/internal/sampler"
	"hyfd/internal/trace"
	"hyfd/internal/validator"
)

// Config parameterizes a HyFD run. The zero value selects the paper's
// defaults: null=null semantics, 1 % efficiency thresholds for both phases,
// single-threaded execution, unbounded results.
type Config struct {
	// NullSemantics selects ⊥=⊥ (default) or ⊥≠⊥ comparisons.
	NullSemantics relation.NullSemantics
	// EfficiencyThreshold is HyFD's only tuning parameter (§10.5): the
	// initial sampling efficiency cutoff and the validation
	// invalid-candidate cutoff. 0 means the paper's default of 0.01.
	EfficiencyThreshold float64
	// Threads is the single worker-count knob of the whole engine: it
	// uniformly drives preprocessing (PLI construction and record
	// inversion), the sampler's cluster sortation and window runs, and
	// candidate validation. 1 forces single-threaded execution (the
	// paper's base variant); any value <= 0 picks runtime.GOMAXPROCS(0).
	// Every thread count produces the identical FD set, PLIs, and
	// observation order — the engine's determinism contract.
	Threads int
	// MaxLhsSize bounds result LHS cardinality up front (0 = unbounded).
	MaxLhsSize int
	// MemoryBudgetBytes arms the Guardian: when the result tree's
	// estimated footprint exceeds the budget, the largest-LHS results are
	// discarded (0 = Guardian disabled).
	MemoryBudgetBytes int
	// Observer, when non-nil, receives trace events as the run progresses:
	// preprocessing, sampling rounds, phase switches, validation levels,
	// Guardian interventions, and completion. Events arrive synchronously
	// from the coordinating goroutine, in run order.
	Observer trace.Observer
	// Metrics, when non-nil, receives the run's quantitative telemetry as
	// hyfd_* instrument families, written by an EngineMetrics observer that
	// subscribes to the run's trace events next to Observer. A nil registry
	// adds no observer.
	Metrics *metrics.Registry

	// Ablation switches. These disable individual HyFD design decisions so
	// the benchmark suite can quantify their contribution; none of them
	// affects the discovered FD set.

	// UnfocusedSampling turns off the cluster sortation of Fig. 3(1):
	// windows slide over clusters in raw record order.
	UnfocusedSampling bool
	// NoSuggestions stops Phase 2 from feeding violating record pairs back
	// into Phase 1.
	NoSuggestions bool
	// IntersectionValidation replaces the direct refinement checks of §8
	// with TANE-style hierarchical PLI intersections.
	IntersectionValidation bool
}

// Stats reports telemetry of one discovery run, mirroring the quantities
// the paper's evaluation discusses. The JSON field names are part of the
// machine-readable output contract (hyfd -stats-json, BENCH_*.json);
// durations serialize as integer nanoseconds under *_ns names.
type Stats struct {
	Rows int `json:"rows"`
	Cols int `json:"cols"`
	// FDCount is the number of minimal FDs found.
	FDCount int `json:"fd_count"`
	// PhaseSwitches counts returns from Phase 2 into Phase 1; the paper
	// reports three to eight on typical datasets.
	PhaseSwitches int `json:"phase_switches"`
	// SamplingRounds counts Sampler invocations (PhaseSwitches + 1).
	SamplingRounds int `json:"sampling_rounds"`
	// Comparisons is the total number of record-pair comparisons.
	Comparisons int64 `json:"comparisons"`
	// Validations is the number of FDTree node validations.
	Validations int64 `json:"validations"`
	// Observations is the number of distinct FD-violations sampled.
	Observations int `json:"observations"`
	// Complete is false when the Guardian (or MaxLhsSize) pruned results;
	// the output then contains exactly the minimal FDs with LHS size up to
	// MaxLhs.
	Complete bool `json:"complete"`
	// MaxLhs is the final LHS bound (== Cols when unbounded).
	MaxLhs int `json:"max_lhs"`
	// Threads is the resolved worker count the run executed with (the
	// configured value, or GOMAXPROCS when that was <= 0).
	Threads int `json:"threads"`
	// Warm is true when the run reused an already-prepared Dataset: its
	// PreprocessingTime then covers only the (near-zero) reuse overhead,
	// not the amortized build cost (see dataset.Dataset.PreprocessingTime).
	Warm bool `json:"warm,omitempty"`

	// Wall-clock per-phase timings, sourced from the run's trace events:
	// PreprocessingTime covers PLI and compressed-record construction,
	// SamplingTime sums the Phase 1 rounds (sampling + induction),
	// ValidationTime sums the Phase 2 levels, and TotalTime covers the
	// whole run.
	PreprocessingTime time.Duration `json:"preprocessing_ns"`
	SamplingTime      time.Duration `json:"sampling_ns"`
	ValidationTime    time.Duration `json:"validation_ns"`
	TotalTime         time.Duration `json:"total_ns"`
}

// statsTimers is the engine's internal observer: it folds the duration
// carried by each trace event back into the run's Stats, so the public
// telemetry and any user observer are fed from the same event stream.
type statsTimers struct{ stats *Stats }

func (t statsTimers) Observe(e trace.Event) {
	switch ev := e.(type) {
	case trace.PreprocessingDone:
		t.stats.PreprocessingTime = ev.Duration
	case trace.SamplingRound:
		t.stats.SamplingTime += ev.Duration
	case trace.ValidationLevel:
		t.stats.ValidationTime += ev.Duration
	case trace.Done:
		t.stats.TotalTime = ev.Duration
	}
}

// Input names the data of one run: exactly one of Relation (a cold run,
// which preprocesses first) and Dataset (a warm run over an already-prepared
// Dataset).
type Input struct {
	Relation *relation.Relation
	Dataset  *dataset.Dataset
}

// Ranking switches a run into ranked top-k mode: validated FDs are scored by
// internal/rank's redundancy measure and the run terminates as soon as the
// top TopK of the ranking are provably stable — usually long before the full
// canonical cover is materialized. TopK <= 0 ranks the complete cover;
// MinScore > 0 additionally drops (and stops below) low-scoring results.
type Ranking struct {
	TopK     int
	MinScore float64
}

// Result is the output of one run. FDs holds the minimal cover of a
// full-cover run; Ranked holds the ranking of a ranked run, ordered by rank.
// Stats is always set.
type Result struct {
	FDs    *fd.Set
	Ranked []rank.FD
	Stats  *Stats
}

// Discover runs HyFD over the input and returns all minimal, non-trivial
// functional dependencies (rk == nil) or their top-k ranking (rk != nil),
// along with run telemetry.
//
// A cold run (in.Relation) preprocesses under cfg.NullSemantics and emits
// PLIBuilt per attribute, then PreprocessingDone. A warm run (in.Dataset)
// never rebuilds PLIs: Stats.Warm is set, Stats.PreprocessingTime covers only
// the (near-zero) reuse overhead, observers receive a single
// PreprocessingDone with Warm set, and cfg.NullSemantics is ignored — the
// Dataset's PLIs were built under ds.NullSemantics(). cfg.Threads > 0 sets
// the worker count; any value <= 0 picks the Dataset's resolved count (warm)
// or runtime.GOMAXPROCS(0) (cold). Because the Dataset is immutable, any
// number of warm runs may execute concurrently over it, and each produces a
// result bit-for-bit identical to a cold run at the same thread count.
//
// A ranked result is exactly the first k entries of the full cover rescored
// offline with rank.Rank — early termination never changes the answer, only
// the work. Each stabilized result is also emitted as a trace.RankedResult
// event while the run is still in flight (the any-time stream).
//
// The context is honored at cancellation checkpoints inside the sampler's
// cluster-window loops and the validator's level traversal (including its
// parallel workers): a canceled or expired context makes Discover return
// promptly with an error wrapping ctx.Err(). A nil ctx is treated as
// context.Background().
func Discover(ctx context.Context, in Input, cfg Config, rk *Ranking) (*Result, error) {
	ctx = background(ctx)
	ds := in.Dataset
	stats := &Stats{Complete: true, Warm: ds != nil}
	switch {
	case (ds == nil) == (in.Relation == nil):
		return nil, errors.New("hyfd: run input needs exactly one of a Relation and a Dataset")
	case ds != nil:
		stats.Rows, stats.Cols = ds.NumRows(), ds.NumCols()
		stats.Threads = resolveThreads(cfg.Threads, ds.Threads())
	default:
		if err := in.Relation.Validate(); err != nil {
			return nil, err
		}
		stats.Rows, stats.Cols = in.Relation.NumRows(), in.Relation.NumCols()
		stats.Threads = resolveThreads(cfg.Threads, runtime.GOMAXPROCS(0))
	}
	if stats.Cols == 0 {
		res := &Result{Stats: stats}
		if rk == nil {
			res.FDs = fd.NewSet(0)
		}
		return res, nil
	}
	ext := trace.Multi(metrics.NewEngineMetrics(cfg.Metrics).Observer(), cfg.Observer)
	obs := trace.Multi(statsTimers{stats}, ext)
	//hyfdvet:allow determinism — wall-clock telemetry only; never influences the FD set
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return nil, interrupted(err)
	}
	if ds == nil {
		// Preprocessor (Alg. 1). The relation was already validated above,
		// so any error out of prepare is a context interruption.
		var err error
		if ds, err = prepare(ctx, in.Relation, cfg.NullSemantics, stats.Threads, obs, ext != nil); err != nil {
			return nil, interrupted(err)
		}
	} else {
		trace.Emit(obs, trace.PreprocessingDone{
			Rows: stats.Rows, Cols: stats.Cols, Threads: stats.Threads, Warm: true,
			//hyfdvet:allow determinism — wall-clock telemetry only; never influences the FD set
			Duration: time.Since(start),
		})
	}
	return run(ctx, ds.Index(), cfg, rk, stats, obs, start)
}

// Prepare runs HyFD's preprocessing (Alg. 1: PLI construction + record
// inversion) once over the relation and returns the immutable Dataset that
// warm runs — Discover with Input.Dataset here, and every converted
// baseline — consume. Observers registered in cfg receive the same PLIBuilt
// (in attribute order) and PreprocessingDone events a cold Discover would
// emit. Only cfg.NullSemantics, cfg.Threads, cfg.Observer, and cfg.Metrics
// are consulted.
func Prepare(ctx context.Context, rel *relation.Relation, cfg Config) (*dataset.Dataset, error) {
	ctx = background(ctx)
	if rel == nil {
		return nil, errors.New("hyfd: nil relation")
	}
	if err := rel.Validate(); err != nil {
		return nil, err
	}
	obs := trace.Multi(metrics.NewEngineMetrics(cfg.Metrics).Observer(), cfg.Observer)
	ds, err := prepare(ctx, rel, cfg.NullSemantics, resolveThreads(cfg.Threads, runtime.GOMAXPROCS(0)), obs, obs != nil)
	if err != nil {
		return nil, interrupted(err)
	}
	return ds, nil
}

// background treats a nil ctx as context.Background(), the documented
// contract of the engine's entry points.
func background(ctx context.Context) context.Context {
	if ctx == nil {
		//hyfdvet:allow ctxflow — documented nil-ctx defaulting at the engine's public boundary
		return context.Background()
	}
	return ctx
}

// resolveThreads returns the configured worker count, or fallback when it is
// <= 0.
func resolveThreads(configured, fallback int) int {
	if configured <= 0 {
		return fallback
	}
	return configured
}

// buildStat records one attribute's PLI build outcome for ordered replay.
type buildStat struct {
	clusters int
	duration time.Duration
}

// prepare builds the Dataset and emits the preprocessing event sequence.
// The build fans attributes over the worker pool; per-attribute timings land
// in builds via disjoint slot writes, and the trace events replay them in
// attribute order afterwards so observers keep their single-goroutine,
// deterministic-order contract. clusterSizes fills PLIBuilt.ClusterSizes;
// callers set it only when an observer beyond the engine's own Stats
// bookkeeping listens.
func prepare(ctx context.Context, rel *relation.Relation, ns relation.NullSemantics, threads int, obs trace.Observer, clusterSizes bool) (*dataset.Dataset, error) {
	builds := make([]buildStat, rel.NumCols())
	ds, err := dataset.Prepare(ctx, rel, dataset.Options{
		NullSemantics: ns,
		Threads:       threads,
		OnBuild: func(p *pli.PLI, d time.Duration) {
			builds[p.Attr] = buildStat{p.NumClusters, d}
		},
	})
	if err != nil {
		return nil, err
	}
	for attr, b := range builds {
		var sizes []int
		if clusterSizes {
			clusters := ds.Index().Plis[attr].Clusters
			sizes = make([]int, len(clusters))
			for i, c := range clusters {
				sizes[i] = len(c)
			}
		}
		trace.Emit(obs, trace.PLIBuilt{Attr: attr, Clusters: b.clusters, ClusterSizes: sizes, Duration: b.duration})
	}
	trace.Emit(obs, trace.PreprocessingDone{
		Rows: rel.NumRows(), Cols: rel.NumCols(), Threads: threads, Duration: ds.PreprocessingTime(),
	})
	return ds, nil
}

// run executes the alternating Phase 1 / Phase 2 loop over a prepared PLI
// index; the index is only read. With a ranking, a rank.Tracker hooks into
// the validator's level boundary: after every completed level it folds the
// level's validated FDs into the ranking and recomputes the cut bound (the
// maximum score any still-unvalidated candidate can reach). Results scoring
// strictly above the bound have final ranks and stream out immediately as
// trace.RankedResult events; once k results are stable (or the bound falls
// below MinScore) the level callback stops the validator mid-run and the
// loop exits without touching the rest of the lattice.
func run(ctx context.Context, ix *pli.Index, cfg Config, rk *Ranking, stats *Stats, obs trace.Observer, start time.Time) (*Result, error) {
	smp := sampler.New(ix, sampler.Config{
		Threshold: cfg.EfficiencyThreshold,
		Threads:   stats.Threads,
		Unfocused: cfg.UnfocusedSampling,
	})
	ind := inductor.New(ix.NumCols)
	if cfg.MaxLhsSize > 0 && cfg.MaxLhsSize < ix.NumCols {
		ind.Tree().SetMaxLhs(cfg.MaxLhsSize)
		stats.Complete = false
	}
	vopts := []validator.Option{
		validator.WithThreads(stats.Threads),
		validator.WithObserver(obs),
	}
	var tracker *rank.Tracker
	if rk != nil {
		tracker = rank.NewTracker(rank.NewScorer(ix), ind.Tree(), rk.TopK, rk.MinScore)
		vopts = append(vopts, validator.WithLevelFunc(func(level int, valid []fd.FD) bool {
			newly, cont := tracker.CompleteLevel(level, valid)
			for _, e := range newly {
				trace.Emit(obs, trace.RankedResult{
					Rank: e.Rank, Score: e.Score,
					Lhs: e.FD.Lhs.Indices(), Rhs: e.FD.Rhs,
					TopK: rk.TopK,
					//hyfdvet:allow determinism — wall-clock telemetry only; never influences the ranking
					Duration: time.Since(start),
				})
			}
			return cont
		}))
	}
	if cfg.EfficiencyThreshold > 0 {
		vopts = append(vopts, validator.WithInvalidThreshold(cfg.EfficiencyThreshold))
	}
	if cfg.IntersectionValidation {
		vopts = append(vopts, validator.WithIntersectionValidation())
	}
	val := validator.New(ix, ind.Tree(), vopts...)
	grd := guardian.New(ind.Tree(), cfg.MemoryBudgetBytes)
	// checkGuardian runs the Guardian and reports any new intervention.
	checkGuardian := func() {
		before := grd.Interventions
		grd.Check()
		if grd.Interventions > before {
			trace.Emit(obs, trace.GuardianPrune{
				MaxLhs: grd.MaxLhs(), Interventions: grd.Interventions,
				FootprintBytes: grd.Footprint(),
			})
		}
	}

	var suggestions []pli.Pair
	for {
		// Phase 1: focused sampling + induction.
		//hyfdvet:allow determinism — wall-clock telemetry only; never influences the FD set
		roundStart := time.Now()
		newObs, err := smp.Run(ctx, suggestions)
		if err != nil {
			return nil, interrupted(err)
		}
		stats.SamplingRounds++
		ind.Update(newObs)
		checkGuardian()
		trace.Emit(obs, trace.SamplingRound{
			Round:              stats.SamplingRounds,
			NewObservations:    len(newObs),
			Comparisons:        smp.Comparisons,
			Windows:            smp.Windows,
			WindowEfficiencies: smp.WindowEfficiencies,
			Threshold:          smp.Threshold(),
			FootprintBytes:     grd.Footprint(),
			//hyfdvet:allow determinism — wall-clock telemetry only; never influences the FD set
			Duration: time.Since(roundStart),
		})
		trace.Emit(obs, trace.PhaseSwitch{
			From: trace.PhaseSampling, To: trace.PhaseValidation,
			Switches: stats.PhaseSwitches,
		})

		// Phase 2: level-wise validation. If sampling produced nothing
		// new, another switch back could not improve the approximation,
		// so validate exhaustively to guarantee termination.
		exhaustive := len(newObs) == 0
		res, err := val.Run(ctx, exhaustive)
		if err != nil {
			return nil, interrupted(err)
		}
		checkGuardian()
		if res.Stopped {
			// A ranked cut intentionally leaves the lattice unexplored: the
			// result is the exact top-k, not the complete cover.
			stats.Complete = false
		}
		if res.Done || res.Stopped {
			break
		}
		suggestions = res.Suggestions
		if cfg.NoSuggestions {
			suggestions = nil
		}
		stats.PhaseSwitches++
		trace.Emit(obs, trace.PhaseSwitch{
			From: trace.PhaseValidation, To: trace.PhaseSampling,
			Switches: stats.PhaseSwitches,
		})
	}

	stats.Comparisons = smp.Comparisons
	stats.Validations = val.Validations
	stats.Observations = smp.ObservationCount()
	stats.MaxLhs = ind.Tree().MaxLhs()
	if grd.Pruned {
		stats.Complete = false
	}
	res := &Result{Stats: stats}
	if tracker != nil {
		res.Ranked = tracker.Finalize()
		stats.FDCount = len(res.Ranked)
	} else {
		res.FDs = ind.Tree().FDs()
		stats.FDCount = res.FDs.Size()
	}
	//hyfdvet:allow determinism — wall-clock telemetry only; never influences the FD set
	trace.Emit(obs, trace.Done{FDs: stats.FDCount, Duration: time.Since(start)})
	return res, nil
}

// interrupted wraps a context error into the engine's error contract;
// errors.Is(err, context.Canceled) and errors.Is(err,
// context.DeadlineExceeded) keep working on the result.
func interrupted(err error) error {
	return fmt.Errorf("hyfd: discovery interrupted: %w", err)
}
