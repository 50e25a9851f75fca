// Package hyfd is a pure-Go implementation of HyFD — "A Hybrid Approach to
// Functional Dependency Discovery" (Papenbrock & Naumann, SIGMOD 2016) —
// together with the seven state-of-the-art discovery algorithms the paper
// evaluates against.
//
// HyFD discovers all minimal, non-trivial functional dependencies of a
// relational instance by alternating between two phases: a column-efficient
// sampling phase that induces FD candidates from carefully chosen record
// pair comparisons, and a row-efficient validation phase that checks the
// candidates directly against position list indexes and specializes the
// invalid ones. The combination processes datasets that are both wide and
// long, where every single-strategy algorithm fails.
//
// # Quick start
//
//	rel, err := hyfd.ReadCSVFile("data.csv", hyfd.CSVOptions{HasHeader: true})
//	if err != nil { ... }
//	result, err := hyfd.Run(ctx, hyfd.Request{Relation: rel})
//	if err != nil { ... }
//	for _, f := range result.FDs {
//		fmt.Println(f.Format(rel))
//	}
//
// Run is the single entry point: one request struct selects the input (a
// raw Relation or a prepared Dataset), the workload (exact FDs, approximate
// FDs, unique column combinations, ranked top-k FDs, or incremental
// maintenance of an FD cover), and the algorithm.
//
// The companion packages expose the use-case layer the paper motivates:
// candidate keys, closures, schema normalization (BCNF/3NF) and FD-based
// data cleansing live in the closure package; synthetic dataset generators
// mirroring the paper's evaluation data live in datasets. Command hyfdd
// serves this API over HTTP as a long-running multi-tenant daemon.
package hyfd

import (
	"context"
	"errors"
	"io"

	"hyfd/internal/afd"
	"hyfd/internal/bitset"
	"hyfd/internal/core"
	"hyfd/internal/dataset"
	"hyfd/internal/fd"
	"hyfd/internal/rank"
	"hyfd/internal/relation"
)

// ErrUnknownAlgorithm is returned (wrapped) by Run when the algorithm name is
// not registered; test with errors.Is.
var ErrUnknownAlgorithm = errors.New("unknown algorithm")

// Relation is a named relational instance (schema + rows of string cells).
type Relation = relation.Relation

// Row is one relation row: a string cell per column. Delta batches are built
// from Rows.
type Row = relation.Row

// NewRelation returns an empty relation with the given name and columns.
func NewRelation(name string, columns []string) *Relation {
	return relation.New(name, columns)
}

// CSVOptions controls CSV parsing; see ReadCSV.
type CSVOptions = relation.CSVOptions

// ReadCSV parses a relation from CSV input.
func ReadCSV(name string, r io.Reader, opts CSVOptions) (*Relation, error) {
	return relation.ReadCSV(name, r, opts)
}

// ReadCSVFile parses a relation from a CSV file.
func ReadCSVFile(path string, opts CSVOptions) (*Relation, error) {
	return relation.ReadCSVFile(path, opts)
}

// Null is the in-memory representation of a SQL NULL cell.
const Null = relation.Null

// NullSemantics selects how nulls compare during discovery.
type NullSemantics = relation.NullSemantics

// The two null comparison semantics of §10.1.
const (
	NullEqualsNull    = relation.NullEqualsNull
	NullNotEqualsNull = relation.NullNotEqualsNull
)

// FD is a functional dependency Lhs → Rhs (attribute indices into the
// relation's columns).
type FD = fd.FD

// FDSet is a canonical collection of FDs.
type FDSet = fd.Set

// AttrSet is a set of attribute indices.
type AttrSet = bitset.Set

// NewAttrSet returns an attribute set over a universe of n attributes with
// the given members.
func NewAttrSet(n int, members ...int) AttrSet {
	return bitset.FromIndices(n, members...)
}

// Options parameterizes a Run. The zero value uses the paper's defaults
// (null=null semantics, the 1 % efficiency threshold, unbounded complete
// results) and runs with one worker per available CPU.
type Options struct {
	// NullSemantics selects ⊥=⊥ (default) or ⊥≠⊥. It applies to cold runs
	// (Request.Relation); a prepared Dataset's baked-in semantics win.
	NullSemantics NullSemantics
	// EfficiencyThreshold is HyFD's only tuning parameter (§10.5); 0 means
	// the paper's default of 0.01. It controls both when sampling is
	// considered exhausted and when validation hands control back.
	EfficiencyThreshold float64
	// Threads is the engine-wide worker count, driving preprocessing (PLI
	// construction), the sampler, and candidate validation uniformly.
	// 1 forces single-threaded execution; any value <= 0 picks
	// runtime.GOMAXPROCS(0). Results and trace-event order are identical
	// for every thread count.
	Threads int
	// MaxLhsSize truncates results to LHSs (or UCCs) of at most this size
	// (0 = unbounded). The result is then complete up to that size.
	MaxLhsSize int
	// MemoryBudgetBytes arms the memory Guardian (§9); 0 disables it.
	MemoryBudgetBytes int
	// Observer, when non-nil, receives trace events as the run progresses
	// (see observer.go for the event vocabulary). Events are delivered
	// synchronously from the engine's coordinating goroutine.
	Observer Observer
	// Metrics, when non-nil, collects the run's quantitative telemetry
	// (comparison/validation counters, phase durations, cluster-size and
	// efficiency histograms, runtime gauges) into the registry's hyfd_*
	// instrument families; see metrics.go. Leaving it nil keeps discovery
	// completely unmetered.
	Metrics *MetricsRegistry
}

// Stats is the telemetry of one discovery run.
type Stats = core.Stats

// RankedFD is one result of a ranked (ModeRanked) run: the FD, its
// redundancy score, and its final 1-based rank. The slice a ranked run
// returns is ordered by rank; the ranking is deterministic (score
// descending, canonical FD order as tie-break) at every thread count.
type RankedFD = rank.FD

// Result bundles one Run's discoveries with its telemetry. Exactly one of
// the payload groups is populated, matching the request's Mode: FDs/Set for
// ModeFD, AFDs for ModeAFD, UCCs for ModeUCC, Ranked for ModeRanked, and
// FDs/Set/Dataset for ModeIncremental. Stats is always set.
type Result struct {
	// FDs holds all discovered minimal, non-trivial FDs in canonical
	// order (ModeFD), or the maintained cover of the new snapshot
	// (ModeIncremental).
	FDs []FD
	// Set is the same collection as a queryable FDSet (ModeFD,
	// ModeIncremental).
	Set *FDSet
	// AFDs holds the minimal approximate FDs with g3 error at most the
	// request's MaxError, in canonical order (ModeAFD).
	AFDs []ApproximateFD
	// UCCs holds the minimal unique column combinations in canonical order
	// (ModeUCC).
	UCCs []AttrSet
	// Ranked holds the top-k scored FDs in rank order (ModeRanked). It is
	// exactly the prefix of the full canonical cover rescored offline —
	// early termination changes the work, never the answer.
	Ranked []RankedFD
	// Dataset is the advanced snapshot an incremental run produced by
	// applying the request's Delta (ModeIncremental). Carry it — together
	// with Set — into the next incremental request to continue the chain.
	Dataset *Dataset
	// Stats reports phase switches, comparisons, validations, and whether
	// the result is complete.
	Stats *Stats
}

// Dataset is an immutable, goroutine-safe preprocessing artifact: the
// relation handle together with its sorted PLIs, PLI-compressed records,
// null semantics, and resolved thread count. Produce one with Prepare and
// fan out any number of concurrent Run calls over it — HyFD, every
// baseline, approximate FDs, and UCCs all accept a Dataset, and each warm
// run yields results bit-for-bit identical to a cold run on the underlying
// relation.
type Dataset = dataset.Dataset

// Delta describes one batch of updates against a Dataset snapshot: rows to
// delete (matched by value against the snapshot) and rows to append. Apply
// it with Dataset.Apply to advance the snapshot chain, or submit it through
// Run with ModeIncremental to additionally maintain an FD result.
type Delta = dataset.Delta

// Provenance records how a delta snapshot was derived from its parent; see
// Dataset.Provenance.
type Provenance = dataset.Provenance

// PrepareOptions parameterizes Prepare. The zero value uses null=null
// semantics and one worker per available CPU.
type PrepareOptions struct {
	// NullSemantics selects ⊥=⊥ (default) or ⊥≠⊥. The choice is baked into
	// the Dataset's PLIs: every run over the Dataset uses it, and the
	// NullSemantics field of per-run Options is ignored for Dataset-based
	// calls.
	NullSemantics NullSemantics
	// Threads is the preprocessing worker count (1 = sequential, <= 0 =
	// all CPUs). The resolved count is recorded on the Dataset and becomes
	// the default worker count of runs that don't override it.
	Threads int
	// Observer, when non-nil, receives the preprocessing trace events
	// (PLIBuilt per attribute, then PreprocessingDone) exactly as a cold
	// Run would emit them.
	Observer Observer
	// Metrics, when non-nil, collects preprocessing telemetry (PLI build
	// durations, cluster sizes) into the registry's hyfd_* families.
	Metrics *MetricsRegistry
}

// Prepare runs HyFD's preprocessing (Algorithm 1: PLI construction and
// record inversion) once over the relation and returns the immutable
// Dataset every Run mode can consume. Preprocessing is
// bit-for-bit deterministic for every thread count. The context is honored;
// a canceled context returns an error wrapping ctx.Err().
func Prepare(ctx context.Context, rel *Relation, opts PrepareOptions) (*Dataset, error) {
	return core.Prepare(ctx, rel, core.Config{
		NullSemantics: opts.NullSemantics,
		Threads:       opts.Threads,
		Observer:      opts.Observer,
		Metrics:       opts.Metrics,
	})
}

// ApproximateFD is an approximate functional dependency with its g3 error:
// the minimum fraction of records whose removal makes the FD exact.
type ApproximateFD = afd.AFD
