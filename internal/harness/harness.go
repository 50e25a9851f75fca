// Package harness executes and measures FD discovery runs for the
// reproduction of the paper's evaluation section (§10): per-run wall-clock
// timing, peak-heap sampling, FD counting, and the job definitions for
// every table and figure. The cmd/bench binary drives these jobs (in
// subprocesses, so timeouts and peak RSS are real); bench_test.go runs
// scaled-down in-process variants.
package harness

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"hyfd/internal/algorithms"
	"hyfd/internal/algorithms/depminer"
	"hyfd/internal/algorithms/dfd"
	"hyfd/internal/algorithms/fastfds"
	"hyfd/internal/algorithms/fdep"
	"hyfd/internal/algorithms/fdmine"
	"hyfd/internal/algorithms/fun"
	"hyfd/internal/algorithms/tane"
	"hyfd/internal/core"
	"hyfd/internal/dataset"
	"hyfd/internal/datasets"
	"hyfd/internal/fd"
	"hyfd/internal/incremental"
	"hyfd/internal/metrics"
	"hyfd/internal/rank"
	"hyfd/internal/relation"
)

// HyFDName is the display name of the paper's algorithm in result tables.
const HyFDName = "HyFD"

// AlgorithmNames lists the evaluation's algorithm column order (Table 1).
var AlgorithmNames = []string{
	"Tane", "Fun", "FD_Mine", "Dfd", "Dep-Miner", "FastFDs", "Fdep", HyFDName,
}

// baselines instantiates the comparison algorithms by name.
func baselines() map[string]algorithms.Algorithm {
	return map[string]algorithms.Algorithm{
		"Tane":      tane.New(),
		"Fun":       fun.New(),
		"FD_Mine":   fdmine.New(),
		"Dfd":       dfd.New(1),
		"Dep-Miner": depminer.New(),
		"FastFDs":   fastfds.New(),
		"Fdep":      fdep.New(),
	}
}

// Spec describes one measurement job.
type Spec struct {
	// Algorithm is one of AlgorithmNames.
	Algorithm string `json:"algorithm"`
	// Dataset is a datasets.ByName key.
	Dataset string `json:"dataset"`
	// Rows caps the generated row count (0 = the dataset's full size).
	Rows int `json:"rows,omitempty"`
	// Cols projects to the first Cols columns (0 = all).
	Cols int `json:"cols,omitempty"`
	// Threads applies to HyFD only.
	Threads int `json:"threads,omitempty"`
	// Threshold overrides HyFD's efficiency threshold (0 = default).
	Threshold float64 `json:"threshold,omitempty"`
	// MaxLhs bounds result LHS sizes (HyFD only); the paper uses this via
	// the Guardian for uniprot, whose complete result is too large to
	// store (§10.4).
	MaxLhs int `json:"max_lhs,omitempty"`
	// TopK, when positive, switches the HyFD run into ranked top-k mode:
	// the engine streams the k best-scored FDs and terminates as soon as
	// the cut bound proves the prefix stable, so Seconds measures
	// time-to-top-k rather than time-to-complete-cover.
	TopK int `json:"top_k,omitempty"`
	// Metrics attaches a metrics registry to HyFD runs and embeds its
	// snapshot in the result (see Result.Metrics). Off by default so the
	// perf-criterion paths (bench_test.go) stay unmetered.
	Metrics bool `json:"metrics,omitempty"`
	// PrepOnly measures only the preprocessing stage (PLI construction and
	// record inversion at the spec's thread count) instead of a full
	// discovery run — the prep experiment's parallel-speedup probe.
	PrepOnly bool `json:"prep_only,omitempty"`
	// Warm prepares a Dataset before the timer starts and measures only the
	// discovery work over it: the cold-vs-warm contrast of the
	// dataset_reuse experiment. The excluded preprocessing cost is reported
	// in Result.PrepSeconds.
	Warm bool `json:"warm,omitempty"`
	// DeltaRows holds back the materialized relation's last DeltaRows rows
	// as an insert batch for an Incremental spec; the base snapshot covers
	// the remaining prefix. The final relation — base plus batch — is
	// row-for-row the full materialization, so a cold run over the same spec
	// sans Incremental is the exact comparison target.
	DeltaRows int `json:"delta_rows,omitempty"`
	// Incremental measures update-batch maintenance instead of discovery:
	// the base snapshot and its FD cover are built before the timer starts
	// (cost reported in PrepSeconds), and Seconds covers exactly
	// Dataset.Apply plus incremental.Maintain over the DeltaRows batch.
	Incremental bool `json:"incremental,omitempty"`
	// Digest records a canonical fingerprint of the run's complete FD cover
	// in Result.CoverDigest (complete HyFD and Incremental runs only) — the
	// cross-run exactness check of the incremental experiment.
	Digest bool `json:"digest,omitempty"`
}

// Result is the outcome of one measurement job.
type Result struct {
	Spec    Spec    `json:"spec"`
	Seconds float64 `json:"seconds"`
	// PrepSeconds is the Dataset preparation cost a Warm spec excluded from
	// Seconds (zero for cold runs, whose Seconds includes preprocessing).
	PrepSeconds float64 `json:"prep_seconds,omitempty"`
	FDs         int     `json:"fds"`
	PeakHeap    uint64  `json:"peak_heap"`
	// Switches is HyFD's phase-switch count (Fig. 8), -1 for baselines.
	Switches int    `json:"switches"`
	Err      string `json:"err,omitempty"`
	// TimedOut / MemExceeded are set by the subprocess driver, never by
	// ExecuteInProcess.
	TimedOut    bool `json:"timed_out,omitempty"`
	MemExceeded bool `json:"mem_exceeded,omitempty"`
	// Stats carries HyFD's full run telemetry (phase timings, comparison
	// and validation counts) when the run completed; nil for baselines.
	Stats *core.Stats `json:"stats,omitempty"`
	// CoverDigest is the sha256 fingerprint of the run's complete FD cover
	// in canonical order, recorded when Spec.Digest is set. Byte-equal
	// digests — incremental vs cold, one worker vs many — certify identical
	// covers without embedding thousands of FDs in the artifact.
	CoverDigest string `json:"cover_digest,omitempty"`
	// RankedDigest is a canonical rendering of a TopK run's output
	// ("rank:score:lhs->rhs" per entry) — byte-equal digests across thread
	// counts are the determinism check of the ranked experiment.
	RankedDigest string `json:"ranked_digest,omitempty"`
	// Metrics is the run's metrics snapshot when Spec.Metrics was set.
	Metrics *metrics.Snapshot `json:"metrics,omitempty"`
}

// Materialize generates the relation a spec runs against.
func Materialize(spec Spec) (*relation.Relation, error) {
	d, err := datasets.ByName(spec.Dataset)
	if err != nil {
		return nil, err
	}
	scale := 1.0
	if spec.Rows > 0 {
		scale = float64(spec.Rows) / float64(d.Rows)
	}
	rel := d.Generate(scale)
	if spec.Rows > 0 && rel.NumRows() > spec.Rows {
		rel = rel.Head(spec.Rows)
		rel.Name = d.Name
	}
	if spec.Cols > 0 && spec.Cols < rel.NumCols() {
		rel = rel.Project(spec.Cols)
		rel.Name = d.Name
	}
	return rel, nil
}

// ExecuteInProcess materializes the spec's dataset and measures the run in
// the current process. Dataset generation time is excluded; peak heap is
// sampled concurrently. A deadline or cancellation of ctx aborts the
// measured run and is reported as a timeout in the result.
func ExecuteInProcess(ctx context.Context, spec Spec) Result {
	rel, err := Materialize(spec)
	if err != nil {
		return Result{Spec: spec, Switches: -1, Err: err.Error()}
	}
	return Measure(ctx, spec, rel)
}

// Measure runs the spec's algorithm against an already-materialized
// relation. A run aborted by ctx reports TimedOut with the elapsed time
// instead of an FD count.
func Measure(ctx context.Context, spec Spec, rel *relation.Relation) Result {
	res := Result{Spec: spec, Switches: -1}

	runtime.GC()
	var peak atomic.Uint64
	stop := make(chan struct{})
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		var ms runtime.MemStats
		ticker := time.NewTicker(2 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > peak.Load() {
					peak.Store(ms.HeapAlloc)
				}
			}
		}
	}()

	setErr := func(err error) {
		res.Err = err.Error()
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			res.TimedOut = true
		}
	}

	// A zero Threads pins HyFD to single-threaded execution here (the
	// engine's own zero default is all CPUs): the paper's tables contrast
	// single-threaded variants, and speedup experiments request workers
	// explicitly.
	threads := spec.Threads
	if threads == 0 {
		threads = 1
	}

	// An Incremental spec pays for the base snapshot and its cover before
	// the timer: Seconds then measures exactly the per-batch maintenance
	// cost — Apply plus Maintain — that the incremental experiment contrasts
	// with a cold Prepare + full discovery over the same final relation.
	var (
		incBase  *dataset.Dataset
		incCover *fd.Set
		incDelta dataset.Delta
	)
	if spec.Incremental {
		n, k := rel.NumRows(), spec.DeltaRows
		if k <= 0 || k >= n {
			res.Err = fmt.Sprintf("incremental spec needs 0 < delta_rows < rows (got %d of %d)", k, n)
		} else {
			incDelta.Inserts = append(incDelta.Inserts, rel.Rows[n-k:]...)
			baseRel := rel.Head(n - k)
			baseRel.Name = rel.Name
			prepStart := time.Now()
			d, err := dataset.Prepare(ctx, baseRel, dataset.Options{Threads: threads})
			if err == nil {
				incBase = d
				var cover *core.Result
				if cover, err = core.Discover(ctx, core.Input{Dataset: d}, core.Config{Threads: threads}, nil); err == nil {
					incCover = cover.FDs
				}
			}
			res.PrepSeconds = time.Since(prepStart).Seconds()
			if err != nil {
				setErr(err)
			}
		}
	}

	// A Warm spec prepares the Dataset before the timer starts: Seconds
	// then covers only the discovery work, and PrepSeconds records the
	// excluded one-off preprocessing cost (the quantity reuse amortizes).
	var ds *dataset.Dataset
	if spec.Warm && !spec.PrepOnly && !spec.Incremental {
		prepStart := time.Now()
		d, err := dataset.Prepare(ctx, rel, dataset.Options{Threads: threads})
		res.PrepSeconds = time.Since(prepStart).Seconds()
		if err != nil {
			setErr(err)
		} else {
			ds = d
		}
	}

	start := time.Now()
	if res.Err != "" {
		// Pre-timer preparation failed; there is nothing to measure.
	} else if spec.Incremental {
		snap, err := incBase.Apply(ctx, incDelta)
		var set *fd.Set
		var istats incremental.Stats
		if err == nil {
			set, istats, err = incremental.Maintain(ctx, snap, incCover, incremental.Config{Threads: threads})
		}
		res.Seconds = time.Since(start).Seconds()
		if err != nil {
			setErr(err)
		} else {
			res.FDs = set.Size()
			res.Stats = &core.Stats{
				Rows: snap.NumRows(), Cols: snap.NumCols(), FDCount: set.Size(),
				Complete: true, Warm: true, Threads: threads,
				Validations:       int64(istats.Checks),
				PreprocessingTime: snap.PreprocessingTime(),
			}
			if spec.Digest {
				res.CoverDigest = coverDigest(set)
			}
		}
	} else if spec.PrepOnly {
		d, err := dataset.Prepare(ctx, rel, dataset.Options{Threads: threads})
		res.Seconds = time.Since(start).Seconds()
		res.FDs = 0
		if err != nil {
			setErr(err)
		}
		runtime.KeepAlive(d)
	} else if spec.Algorithm == HyFDName {
		var reg *metrics.Registry
		if spec.Metrics {
			reg = metrics.NewRegistry()
		}
		cfg := core.Config{
			Threads:             threads,
			EfficiencyThreshold: spec.Threshold,
			MaxLhsSize:          spec.MaxLhs,
			Metrics:             reg,
		}
		in := core.Input{Relation: rel}
		if spec.Warm {
			in = core.Input{Dataset: ds}
		}
		var ranking *core.Ranking
		if spec.TopK > 0 {
			ranking = &core.Ranking{TopK: spec.TopK}
		}
		out, err := core.Discover(ctx, in, cfg, ranking)
		res.Seconds = time.Since(start).Seconds()
		if err != nil {
			setErr(err)
		} else {
			res.Switches = out.Stats.PhaseSwitches
			res.Stats = out.Stats
			if ranking != nil {
				res.FDs = len(out.Ranked)
				res.RankedDigest = rankedDigest(out.Ranked)
			} else {
				res.FDs = out.FDs.Size()
				if spec.Digest {
					res.CoverDigest = coverDigest(out.FDs)
				}
			}
			if reg != nil {
				snap := reg.Snapshot()
				res.Metrics = &snap
			}
		}
	} else {
		alg, ok := baselines()[spec.Algorithm]
		if !ok {
			res.Err = fmt.Sprintf("unknown algorithm %q", spec.Algorithm)
		} else {
			var err error
			if !spec.Warm {
				ds, err = dataset.Prepare(ctx, rel, dataset.Options{Threads: 1})
			}
			var set *fd.Set
			if err == nil {
				set, err = alg.Discover(ctx, ds, algorithms.Config{MaxLhsSize: spec.MaxLhs})
			}
			res.Seconds = time.Since(start).Seconds()
			if err != nil {
				setErr(err)
			} else {
				res.FDs = set.Size()
			}
		}
	}
	close(stop)
	<-samplerDone
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > peak.Load() {
		peak.Store(ms.HeapAlloc)
	}
	res.PeakHeap = peak.Load()
	return res
}

// coverDigest fingerprints a complete FD cover: the sha256 of the set's
// canonical deterministic rendering, hex-encoded.
func coverDigest(set *fd.Set) string {
	sum := sha256.Sum256([]byte(set.String()))
	return hex.EncodeToString(sum[:])
}

// rankedDigest renders a ranked result canonically, one "rank:score:fd"
// entry per line. Two runs over the same relation must produce byte-equal
// digests regardless of thread count — the ranked experiment derives its
// determinism metric from that equality.
func rankedDigest(ranked []rank.FD) string {
	var b strings.Builder
	for _, r := range ranked {
		fmt.Fprintf(&b, "%d:%.12g:%s\n", r.Rank, r.Score, r.FD.String())
	}
	return b.String()
}
