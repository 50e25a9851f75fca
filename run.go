package hyfd

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"hyfd/internal/afd"
	"hyfd/internal/algorithms"
	"hyfd/internal/core"
	"hyfd/internal/incremental"
	"hyfd/internal/metrics"
	"hyfd/internal/trace"
	"hyfd/internal/ucc"
)

// Mode selects the discovery workload of a Run request: exact functional
// dependencies, approximate functional dependencies (g3 error), unique
// column combinations, ranked top-k FD discovery, or incremental FD
// maintenance across dataset snapshots.
type Mode string

// The five discovery workloads.
const (
	ModeFD          Mode = "fd"
	ModeAFD         Mode = "afd"
	ModeUCC         Mode = "ucc"
	ModeRanked      Mode = "ranked"
	ModeIncremental Mode = "incremental"
)

// ErrUnknownMode is returned (wrapped) by Run and ParseMode when the mode
// string names none of the workloads; test with errors.Is.
var ErrUnknownMode = errors.New("unknown mode")

// Modes lists the valid mode names.
func Modes() []string {
	return []string{string(ModeFD), string(ModeAFD), string(ModeUCC), string(ModeRanked), string(ModeIncremental)}
}

// ParseMode normalizes a mode string ("" and "fd" are exact FD discovery;
// matching is case-insensitive). Unknown strings return an error wrapping
// ErrUnknownMode.
func ParseMode(s string) (Mode, error) {
	switch Mode(strings.ToLower(s)) {
	case "", ModeFD:
		return ModeFD, nil
	case ModeAFD:
		return ModeAFD, nil
	case ModeUCC:
		return ModeUCC, nil
	case ModeRanked:
		return ModeRanked, nil
	case ModeIncremental:
		return ModeIncremental, nil
	}
	return "", fmt.Errorf("hyfd: %w %q (available: %s)", ErrUnknownMode, s, strings.Join(Modes(), ", "))
}

// Request is the single request-struct entry point's input: one discovery
// job, fully described by data. It is the in-process twin of the hyfdd
// server's JSON JobRequest — every JSON field maps onto exactly one field
// here.
type Request struct {
	// Dataset is the prepared input (see Prepare). Exactly one of Dataset
	// and Relation must be set; a Dataset makes the run warm (preprocessing
	// already paid), and its baked-in null semantics apply regardless of
	// Options.NullSemantics.
	Dataset *Dataset
	// Relation is the raw input; Run preprocesses it first (a cold run).
	Relation *Relation
	// Algorithm names the discovery algorithm for ModeFD ("" = HyFD; see
	// Algorithms for the baselines). Modes afd and ucc have a single
	// built-in strategy: any non-empty Algorithm is rejected there with an
	// error wrapping ErrUnknownAlgorithm.
	Algorithm string
	// Mode selects the workload ("" = ModeFD).
	Mode Mode
	// MaxError is ModeAFD's g3 threshold ε ∈ [0,1); 0 reproduces exact
	// discovery. Ignored by the other modes.
	MaxError float64
	// TopK is ModeRanked's result budget: the run returns the k best-scoring
	// FDs and terminates as soon as that prefix is provably stable. 0 ranks
	// the complete cover. Ignored by the other modes.
	TopK int
	// MinScore is ModeRanked's score floor: results scoring below it are
	// dropped, and the run stops once no remaining candidate can reach it.
	// 0 disables the floor. Ignored by the other modes.
	MinScore float64
	// Delta is ModeIncremental's update batch, applied to Dataset (which
	// must be set; Relation is rejected) to advance the snapshot chain.
	Delta *Delta
	// Base is ModeIncremental's starting point: the exact minimal FD cover
	// of Dataset, typically the Set of a previous ModeFD or ModeIncremental
	// result over that snapshot.
	Base *FDSet
	// Options carries the per-run tuning shared by all modes: MaxLhsSize
	// bounds LHS/UCC sizes everywhere; EfficiencyThreshold and
	// MemoryBudgetBytes apply to the HyFD engine; Threads, Observer, and
	// Metrics apply to the HyFD engine, incremental maintenance, and the
	// preprocessing of every cold run.
	Options Options
}

// Run executes one discovery request under the given context — the single
// entry point of the package. The context is honored in every mode:
// cancellation or a deadline aborts the run promptly with an error wrapping
// ctx.Err().
//
// The result carries FDs/Set (ModeFD), AFDs (ModeAFD), UCCs (ModeUCC),
// Ranked (ModeRanked), or FDs/Set plus the advanced Dataset
// (ModeIncremental), and Stats in every mode. Results are bit-for-bit
// deterministic for every thread count, and a warm run (Request.Dataset)
// returns results identical to a cold run (Request.Relation) on the same
// data.
func Run(ctx context.Context, req Request) (*Result, error) {
	mode, err := ParseMode(string(req.Mode))
	if err != nil {
		return nil, err
	}
	if req.Dataset == nil && req.Relation == nil {
		return nil, errors.New("hyfd: request needs a Dataset or a Relation")
	}
	if req.Dataset != nil && req.Relation != nil {
		return nil, errors.New("hyfd: request must set exactly one of Dataset and Relation")
	}
	if mode != ModeFD && req.Algorithm != "" {
		return nil, fmt.Errorf("hyfd: %w %q (mode %q has a single built-in strategy; leave Algorithm empty)",
			ErrUnknownAlgorithm, req.Algorithm, mode)
	}
	switch mode {
	case ModeFD:
		return runFD(ctx, req)
	case ModeAFD:
		return runAFD(ctx, req)
	case ModeRanked:
		return runRanked(ctx, req)
	case ModeIncremental:
		return runIncremental(ctx, req)
	default:
		return runUCC(ctx, req)
	}
}

// runIncremental applies the request's Delta to the prepared Dataset and
// maintains the Base cover across the snapshot advance — re-validating only
// the candidates the delta can break instead of re-running discovery. The
// maintained Set (and the FD digest derived from it) is byte-identical to a
// cold full run over the new snapshot, at every thread count; Result.Dataset
// carries the new snapshot for the next increment.
func runIncremental(ctx context.Context, req Request) (*Result, error) {
	if req.Dataset == nil {
		return nil, errors.New("hyfd: ModeIncremental needs a prepared Dataset (set Request.Dataset, not Relation)")
	}
	if req.Delta == nil {
		return nil, errors.New("hyfd: ModeIncremental needs Request.Delta")
	}
	if req.Base == nil {
		return nil, errors.New("hyfd: ModeIncremental needs Request.Base (the snapshot's exact FD cover)")
	}
	if req.Options.MaxLhsSize > 0 {
		// A truncated base cover does not determine the truncated cover of
		// the next snapshot: newly-minimal FDs can descend from candidates
		// beyond the bound. Maintenance therefore requires complete covers.
		return nil, errors.New("hyfd: ModeIncremental requires an unbounded cover (Options.MaxLhsSize must be 0)")
	}
	opts := req.Options
	observer := trace.Multi(opts.Observer, metrics.NewEngineMetrics(opts.Metrics).Observer())
	snap, err := req.Dataset.Apply(ctx, *req.Delta)
	if err != nil {
		return nil, err
	}
	prov := snap.Provenance()
	trace.Emit(observer, trace.DeltaApplied{
		Version:     snap.Version(),
		Inserts:     prov.Inserts,
		Deletes:     prov.Deletes,
		Rows:        snap.NumRows(),
		SharedAttrs: prov.SharedAttrs,
		Duration:    snap.PreprocessingTime(),
	})
	set, istats, err := incremental.Maintain(ctx, snap, req.Base, incremental.Config{
		Threads:  opts.Threads,
		Observer: observer,
	})
	if err != nil {
		return nil, err
	}
	threads := opts.Threads
	if threads <= 0 {
		threads = snap.Threads()
	}
	stats := &Stats{
		Rows:              snap.NumRows(),
		Cols:              snap.NumCols(),
		FDCount:           set.Size(),
		MaxLhs:            snap.NumCols(),
		Complete:          true,
		Warm:              true,
		Threads:           threads,
		Validations:       int64(istats.Checks),
		PreprocessingTime: snap.PreprocessingTime(),
		TotalTime:         snap.PreprocessingTime() + istats.Duration,
	}
	return &Result{FDs: set.All(), Set: set, Dataset: snap, Stats: stats}, nil
}

// runFD dispatches exact FD discovery: the HyFD engine or a named baseline.
func runFD(ctx context.Context, req Request) (*Result, error) {
	if req.Algorithm != "" && req.Algorithm != AlgorithmHyFD {
		return runBaseline(ctx, req)
	}
	res, err := core.Discover(ctx, core.Input{Relation: req.Relation, Dataset: req.Dataset}, engineConfig(req.Options), nil)
	if err != nil {
		return nil, err
	}
	return &Result{FDs: res.FDs.All(), Set: res.FDs, Stats: res.Stats}, nil
}

// runRanked dispatches ranked top-k FD discovery over the HyFD engine. The
// result carries Ranked (score order, ranks assigned) plus Stats;
// Stats.Complete is false when the run cut the lattice early — the results
// are still the exact top-k of the full cover.
func runRanked(ctx context.Context, req Request) (*Result, error) {
	if req.TopK < 0 {
		return nil, fmt.Errorf("hyfd: invalid TopK %d: must be >= 0", req.TopK)
	}
	if req.MinScore < 0 {
		return nil, fmt.Errorf("hyfd: invalid MinScore %g: must be >= 0", req.MinScore)
	}
	res, err := core.Discover(ctx, core.Input{Relation: req.Relation, Dataset: req.Dataset}, engineConfig(req.Options),
		&core.Ranking{TopK: req.TopK, MinScore: req.MinScore})
	if err != nil {
		return nil, err
	}
	return &Result{Ranked: res.Ranked, Stats: res.Stats}, nil
}

// engineConfig maps the per-run options onto the HyFD engine's Config.
func engineConfig(opts Options) core.Config {
	return core.Config{
		NullSemantics:       opts.NullSemantics,
		EfficiencyThreshold: opts.EfficiencyThreshold,
		Threads:             opts.Threads,
		MaxLhsSize:          opts.MaxLhsSize,
		MemoryBudgetBytes:   opts.MemoryBudgetBytes,
		Observer:            opts.Observer,
		Metrics:             opts.Metrics,
	}
}

// runBaseline runs a named baseline algorithm over the request's Dataset,
// preparing the Relation first for cold runs. The baselines don't report the
// engine's per-phase telemetry, so only the dimensional and outcome Stats
// fields are populated; TotalTime includes a cold run's preprocessing.
func runBaseline(ctx context.Context, req Request) (*Result, error) {
	alg, ok := registry[req.Algorithm]
	if !ok {
		return nil, fmt.Errorf("hyfd: %w %q (available: %v)", ErrUnknownAlgorithm, req.Algorithm, Algorithms())
	}
	start := time.Now()
	ds, warm, err := requestDataset(ctx, req)
	if err != nil {
		return nil, err
	}
	set, err := alg.Discover(ctx, ds, algorithms.Config{MaxLhsSize: req.Options.MaxLhsSize})
	if err != nil {
		return nil, err
	}
	stats := auxiliaryStats(ds, req.Options.MaxLhsSize, warm, time.Since(start))
	stats.FDCount = set.Size()
	return &Result{FDs: set.All(), Set: set, Stats: stats}, nil
}

// runAFD dispatches approximate FD discovery (g3 ≤ Request.MaxError).
func runAFD(ctx context.Context, req Request) (*Result, error) {
	start := time.Now()
	ds, warm, err := requestDataset(ctx, req)
	if err != nil {
		return nil, err
	}
	afds, err := afd.Discover(ctx, ds, afd.Options{
		MaxError: req.MaxError,
		MaxLhs:   req.Options.MaxLhsSize,
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		AFDs:  afds,
		Stats: auxiliaryStats(ds, req.Options.MaxLhsSize, warm, time.Since(start)),
	}, nil
}

// runUCC dispatches unique column combination discovery.
func runUCC(ctx context.Context, req Request) (*Result, error) {
	start := time.Now()
	ds, warm, err := requestDataset(ctx, req)
	if err != nil {
		return nil, err
	}
	uccs, err := ucc.Discover(ctx, ds, req.Options.MaxLhsSize)
	if err != nil {
		return nil, err
	}
	return &Result{
		UCCs:  uccs,
		Stats: auxiliaryStats(ds, req.Options.MaxLhsSize, warm, time.Since(start)),
	}, nil
}

// requestDataset resolves the request's input to a prepared Dataset,
// preparing the Relation on the spot for cold runs; warm reports whether the
// caller supplied the Dataset (and so excluded preprocessing from the run).
func requestDataset(ctx context.Context, req Request) (*Dataset, bool, error) {
	if req.Dataset != nil {
		return req.Dataset, true, nil
	}
	ds, err := Prepare(ctx, req.Relation, PrepareOptions{
		NullSemantics: req.Options.NullSemantics,
		Threads:       req.Options.Threads,
		Observer:      req.Options.Observer,
		Metrics:       req.Options.Metrics,
	})
	if err != nil {
		return nil, false, err
	}
	return ds, false, nil
}

// auxiliaryStats assembles the Stats of an afd/ucc/baseline run: the
// dimensional and outcome fields, without the HyFD engine's per-phase
// telemetry.
func auxiliaryStats(ds *Dataset, maxLhsSize int, warm bool, total time.Duration) *Stats {
	stats := &Stats{
		Rows:      ds.NumRows(),
		Cols:      ds.NumCols(),
		MaxLhs:    ds.NumCols(),
		Complete:  true,
		Warm:      warm,
		TotalTime: total,
	}
	if !warm {
		stats.PreprocessingTime = ds.PreprocessingTime()
	}
	if maxLhsSize > 0 {
		stats.MaxLhs = maxLhsSize
		stats.Complete = false
	}
	return stats
}
