// Package trace defines the observability layer of the discovery engine:
// a pluggable Observer that receives typed events as a run progresses.
// HyFD's orchestrator emits one event per preprocessing step, sampling
// round, phase switch, validation level, Guardian intervention, and run
// completion, so callers can render progress, collect per-phase timings, or
// feed dashboards without touching engine internals.
//
// Observers are invoked synchronously from the engine's coordinating
// goroutine, in run order — never concurrently. An observer must therefore
// return quickly; expensive sinks should hand events off to their own
// goroutine. A nil Observer is always valid and costs one branch per event.
//
// The internal/metrics package builds on this layer: its EngineMetrics
// observer is the only writer of the engine's hyfd_* counter, gauge and
// histogram families, so Prometheus exposition and JSON snapshots are fed
// from the same events as any user observer. Events therefore carry every
// quantity the metrics report, as cumulative run totals (comparisons,
// windows, validations) or per-round batches (window efficiencies, cluster
// sizes). The internal/tracing package bridges the same
// stream into per-job flight-recorder spans for the hyfdd serving path.
package trace

import (
	"sync"
	"time"
)

// Phase identifies one of the engine's alternating phases.
type Phase int

// The engine's phases in the order a run visits them.
const (
	// PhaseSampling is Phase 1: focused sampling + FD induction.
	PhaseSampling Phase = iota
	// PhaseValidation is Phase 2: level-wise candidate validation.
	PhaseValidation
)

// String returns the phase's display name.
func (p Phase) String() string {
	switch p {
	case PhaseSampling:
		return "sampling"
	case PhaseValidation:
		return "validation"
	default:
		return "unknown"
	}
}

// Event is the common interface of all trace events. The concrete types
// below form the complete event vocabulary; observers type-switch on them.
type Event interface{ event() }

// IngestDone reports that a relation was parsed from external input (CSV).
// Ingest happens before the engine runs, so this event is emitted by the
// loading layer (e.g. cmd/hyfd) rather than the orchestrator; it shares the
// observer vocabulary so progress rendering and metrics cover the full
// pipeline from bytes to FDs.
type IngestDone struct {
	Rows, Cols int
	// Threads is the parser worker count the ingest ran with.
	Threads int
	// Duration is the ingest wall-clock time.
	Duration time.Duration
}

// PLIBuilt reports the construction of one attribute's PLI during
// preprocessing. The orchestrator emits one event per attribute, in
// attribute order, after the (possibly parallel) build completes.
type PLIBuilt struct {
	// Attr is the attribute index.
	Attr int
	// Clusters is the attribute's distinct-value count (including stripped
	// singletons).
	Clusters int
	// ClusterSizes lists the sizes of the attribute's non-singleton
	// clusters in cluster order. The engine fills it only when a caller's
	// observer or metrics registry is attached.
	ClusterSizes []int
	// Duration is the attribute's build wall-clock time.
	Duration time.Duration
}

// PreprocessingDone reports that PLIs and compressed records were built —
// or, for a warm run, that a previously prepared Dataset was reused.
type PreprocessingDone struct {
	Rows, Cols int
	// Threads is the worker count preprocessing ran with.
	Threads int
	// Duration is the preprocessing wall-clock time. Warm runs report the
	// (near-zero) reuse overhead, not the original build cost.
	Duration time.Duration
	// Warm is true when the run reused an already-prepared Dataset instead
	// of building PLIs itself.
	Warm bool
}

// SamplingRound reports one completed Sampler invocation (Phase 1).
type SamplingRound struct {
	// Round counts sampling rounds from 1.
	Round int
	// NewObservations is the number of FD-violations first seen this round.
	NewObservations int
	// Comparisons is the cumulative record-pair comparison count.
	Comparisons int64
	// Windows is the cumulative cluster-window run count (the sampler's
	// unit of work; each window run compares every record pair at one
	// window distance within one cluster).
	Windows int64
	// WindowEfficiencies holds the new violations per comparison of each
	// window run this round that made comparisons, in run order — the
	// quantity the sampler's priority queue ranks on. Every round carries
	// its own slice.
	WindowEfficiencies []float64
	// Threshold is the efficiency threshold the round stopped at (it halves
	// on every re-entry into Phase 1).
	Threshold float64
	// FootprintBytes is the result tree's approximate footprint after the
	// round's induction and Guardian check.
	FootprintBytes int64
	// Duration is the round's wall-clock time including induction.
	Duration time.Duration
}

// PhaseSwitch reports a hand-over between the two phases.
type PhaseSwitch struct {
	From, To Phase
	// Switches counts Phase 2 → Phase 1 returns so far.
	Switches int
}

// ValidationLevel reports one validated FDTree level (Phase 2).
type ValidationLevel struct {
	// Level is the LHS cardinality of the validated candidates.
	Level int
	// Candidates is the number of FD candidates checked on this level.
	Candidates int
	// Valid and Invalid partition the checked candidates.
	Valid, Invalid int
	// Suggestions is the number of violating record pairs this level
	// collected for Phase 1 — the quantity that decides a switch back.
	Suggestions int
	// Validations is the cumulative FDTree node validation count.
	Validations int64
	// FootprintBytes is the result tree's approximate footprint after the
	// level's specializations.
	FootprintBytes int64
	// Duration is the level's wall-clock time.
	Duration time.Duration
}

// GuardianPrune reports a memory-Guardian intervention: the result tree
// exceeded its budget and the maximum LHS size was lowered.
type GuardianPrune struct {
	// MaxLhs is the new LHS bound after pruning.
	MaxLhs int
	// Interventions counts Guardian interventions so far.
	Interventions int
	// FootprintBytes is the result tree's approximate footprint after the
	// prune.
	FootprintBytes int64
}

// RankedResult reports one FD of a ranked (top-k) run the moment its final
// position in the ranking becomes stable — the any-time result stream.
// Events arrive in rank order (1, 2, ...) and a rank, once reported, never
// changes; consumers may render results incrementally while the run is
// still refining lower ranks. The attribute indices are plain ints so
// observers need no dependency on the engine's set types.
type RankedResult struct {
	// Rank is the FD's final 1-based position in the ranked order.
	Rank int
	// Score is the FD's redundancy score (see internal/rank).
	Score float64
	// Lhs holds the determinant attribute indices in ascending order.
	Lhs []int
	// Rhs is the dependent attribute index.
	Rhs int
	// TopK is the run's result budget (0 when the run ranks the complete
	// cover); the result with Rank == TopK completes the top-k.
	TopK int
	// Duration is the elapsed run time when the rank stabilized.
	Duration time.Duration
}

// Done reports run completion. It is the final event of every successful
// run; canceled runs end without it.
type Done struct {
	// FDs is the number of minimal FDs discovered.
	FDs int
	// Duration is the total wall-clock time of the run.
	Duration time.Duration
}

// DeltaApplied reports one Dataset.Apply: the snapshot chain advanced by one
// version. SharedAttrs counts attributes whose cluster lists are structurally
// shared with the parent snapshot (deletes force a full rebuild, so it is
// zero whenever Deletes > 0).
type DeltaApplied struct {
	// Version is the new snapshot's version.
	Version int
	// Inserts and Deletes count the delta's rows.
	Inserts int
	Deletes int
	// Rows is the new snapshot's row count.
	Rows int
	// SharedAttrs counts cluster lists shared with the parent.
	SharedAttrs int
	// Duration is the wall-clock time Apply took.
	Duration time.Duration
}

// IncrementalCandidates reports the breakable-candidate derivation of an
// incremental maintenance run: how much of the base cover the delta could
// actually affect.
type IncrementalCandidates struct {
	// BaseFDs is the size of the maintained base cover.
	BaseFDs int
	// Breakable counts base FDs an inserted record could have invalidated
	// (the insert's compressed record is non-singleton on the whole LHS).
	Breakable int
	// DeleteSeeds counts the distinct top candidates seeded from deleted
	// records' touched attribute sets for re-generalization.
	DeleteSeeds int
}

// IncrementalDone reports completion of an incremental maintenance run.
type IncrementalDone struct {
	// FDs is the size of the maintained minimal cover.
	FDs int
	// Checks counts direct-refinement validations performed — the work a
	// full re-run would have multiplied many times over.
	Checks int
	// Specialized counts candidates added while descending from broken FDs.
	Specialized int
	// Generalized counts FDs added by delete-driven re-generalization.
	Generalized int
	// Duration is the total wall-clock time of the maintenance run.
	Duration time.Duration
}

func (IngestDone) event()            {}
func (PLIBuilt) event()              {}
func (PreprocessingDone) event()     {}
func (SamplingRound) event()         {}
func (PhaseSwitch) event()           {}
func (ValidationLevel) event()       {}
func (GuardianPrune) event()         {}
func (RankedResult) event()          {}
func (Done) event()                  {}
func (DeltaApplied) event()          {}
func (IncrementalCandidates) event() {}
func (IncrementalDone) event()       {}

// Observer receives trace events during a discovery run.
type Observer interface {
	Observe(Event)
}

// ObserverFunc adapts a plain function to the Observer interface.
type ObserverFunc func(Event)

// Observe implements Observer.
func (f ObserverFunc) Observe(e Event) { f(e) }

// Emit delivers e to o; a nil o is a no-op. Engine code always emits
// through this helper so unobserved runs pay only a nil check.
func Emit(o Observer, e Event) {
	if o != nil {
		o.Observe(e)
	}
}

// Multi fans every event out to all given observers in order; nil entries
// are skipped. Multi(nil...) and Multi() return a nil Observer.
func Multi(os ...Observer) Observer {
	flat := make([]Observer, 0, len(os))
	for _, o := range os {
		if o != nil {
			flat = append(flat, o)
		}
	}
	switch len(flat) {
	case 0:
		return nil
	case 1:
		return flat[0]
	}
	return multi(flat)
}

type multi []Observer

func (m multi) Observe(e Event) {
	for _, o := range m {
		o.Observe(e)
	}
}

// Collector is an Observer that records every event it sees, in order. It
// is safe for concurrent use and mainly serves tests and post-run
// reporting.
type Collector struct {
	mu     sync.Mutex
	events []Event
}

// Observe implements Observer.
func (c *Collector) Observe(e Event) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

// Events returns a copy of the recorded events in arrival order.
func (c *Collector) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events...)
}

// Len returns the number of recorded events.
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.events)
}
