package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"hyfd"
	"hyfd/internal/guardian"
	"hyfd/internal/inductor"
	"hyfd/internal/pli"
	"hyfd/internal/sampler"
	"hyfd/internal/validator"
)

// setupReps is how many times a run parses and prepares its input; setup_s
// is their median, because a single 15-60 ms set-up is too noisy to gate.
const setupReps = 11

// fdRows is the row count of an fd-* analog.
func fdRows(name string, small bool) int {
	switch {
	case name == "ncvoter" && small:
		return 2000
	case name == "ncvoter":
		return 16000
	case small:
		return 150
	default:
		return 1000
	}
}

// pairOrder alternates which thread count runs first in round i, so a drift
// in machine speed during a run does not favour one of them.
func pairOrder(i int) [2]int {
	if i%2 == 0 {
		return [2]int{1, parallelism}
	}
	return [2]int{parallelism, 1}
}

// discover is one warm HyFD discovery through the public entry point.
func discover(ctx context.Context, ds *hyfd.Dataset, threads int) (*hyfd.Result, error) {
	return hyfd.Run(ctx, hyfd.Request{Dataset: ds, Options: hyfd.Options{Threads: threads}})
}

// runFD is the fd-ncvoter / fd-plista workload: warm discovery at one and
// at two threads, alternating, for the run's measurement time.
func runFD(ctx context.Context, r *run, name string) error {
	rel, err := analog(name, fdRows(name, r.cfg.small), r.cfg.seed)
	if err != nil {
		return err
	}
	csv, err := csvBytes(rel)
	if err != nil {
		return err
	}
	ds, err := setUp(ctx, r, name, csv, setupReps)
	if err != nil {
		return err
	}
	recordClusters(r, ds)
	ref, err := discover(ctx, ds, 1)
	if err != nil {
		return fmt.Errorf("reference discovery: %w", err)
	}
	refDigest := fdDigest(ref.FDs)
	r.env["rows"], r.env["cols"], r.env["fds"] = ds.NumRows(), ds.NumCols(), len(ref.FDs)
	ref = nil
	if r.cfg.trace {
		return traceFD(ctx, r, ds, refDigest)
	}

	lat := map[int][]float64{}
	var busy time.Duration
	start := time.Now()
	for i := 0; i == 0 || time.Since(start).Seconds() < r.cfg.seconds; i++ {
		for _, threads := range pairOrder(i) {
			settle()
			t := time.Now()
			res, err := discover(ctx, ds, threads)
			d := time.Since(t)
			if err != nil {
				r.fail(fmt.Sprintf("discover t=%d", threads), err)
				continue
			}
			r.check(fmt.Sprintf("discover t=%d", threads), fdDigest(res.FDs), refDigest)
			lat[threads] = append(lat[threads], ms(d))
			busy += d
		}
	}
	r.set("op_p50_ms", median(lat[1]))
	r.set("op_t2_p50_ms", median(lat[parallelism]))
	r.set("ops_per_s", float64(len(lat[1])+len(lat[parallelism]))/busy.Seconds())
	rss, err := peakRSSMB(0)
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", rss)
	return nil
}

// layers is one traced discovery: the time and counts of every call the
// replica made into a layer's public API.
type layers struct {
	total, construct, sampler, inductor, validator, guardian, extract time.Duration
	samplerAlloc, validatorAlloc                                      uint64
	comparisons, windows, validations                                 int64
	observations, valid, invalid, suggestions, rounds, switches       int
	nodes, treeBytes                                                  int
	fds                                                               []hyfd.FD
}

// calls is the time spent inside timed layer calls.
func (l layers) calls() time.Duration {
	return l.construct + l.sampler + l.inductor + l.validator + l.guardian + l.extract
}

// totalAlloc returns the bytes allocated by the process so far.
func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// replica re-composes the HyFD engine loop (internal/core's run) from the
// layers' public calls and times each call from outside. Its cover must
// equal hyfd.Run's; a replica that drifts from the engine fails the run's
// correctness check.
func replica(ctx context.Context, ds *hyfd.Dataset, threads int) (layers, error) {
	var l layers
	ix := ds.Index()
	start := time.Now()
	t := start
	smp := sampler.New(ix, sampler.Config{Threads: threads})
	ind := inductor.New(ix.NumCols)
	val := validator.New(ix, ind.Tree(), validator.WithThreads(threads))
	grd := guardian.New(ind.Tree(), 0)
	l.construct = time.Since(t)
	var suggestions []pli.Pair
	for {
		a := totalAlloc()
		t = time.Now()
		obs, err := smp.Run(ctx, suggestions)
		l.sampler += time.Since(t)
		l.samplerAlloc += totalAlloc() - a
		if err != nil {
			return l, err
		}
		l.rounds++
		t = time.Now()
		ind.Update(obs)
		l.inductor += time.Since(t)
		t = time.Now()
		grd.Check()
		l.guardian += time.Since(t)

		a = totalAlloc()
		t = time.Now()
		res, err := val.Run(ctx, len(obs) == 0)
		l.validator += time.Since(t)
		l.validatorAlloc += totalAlloc() - a
		if err != nil {
			return l, err
		}
		l.valid += res.ValidFds
		l.invalid += res.InvalidFds
		l.suggestions += len(res.Suggestions)
		t = time.Now()
		grd.Check()
		l.guardian += time.Since(t)
		if res.Done {
			break
		}
		suggestions = res.Suggestions
		l.switches++
	}
	t = time.Now()
	l.fds = ind.Tree().FDs().All()
	l.extract = time.Since(t)
	l.total = time.Since(start)
	l.comparisons, l.windows, l.observations = smp.Comparisons, smp.Windows, smp.ObservationCount()
	l.validations = val.Validations
	l.nodes, l.treeBytes = ind.Tree().NodeCount(), ind.Tree().ApproxBytes()
	return l, nil
}

// tracedDiscovery runs one untraced hyfd.Run and one replica at the given
// thread count, checks the replica's cover against refDigest, and returns
// both. It also returns the untraced run's GC and allocation counts.
func tracedDiscovery(ctx context.Context, r *run, ds *hyfd.Dataset, threads int, refDigest string) (plain time.Duration, gc runtime.MemStats, l layers, ok bool) {
	settle()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	t := time.Now()
	res, err := discover(ctx, ds, threads)
	plain = time.Since(t)
	runtime.ReadMemStats(&gc)
	gc.NumGC -= before.NumGC
	gc.PauseTotalNs -= before.PauseTotalNs
	gc.TotalAlloc -= before.TotalAlloc
	if err != nil {
		r.fail(fmt.Sprintf("discover t=%d", threads), err)
		return
	}
	r.check(fmt.Sprintf("discover t=%d", threads), fdDigest(res.FDs), refDigest)
	res = nil
	settle()
	l, err = replica(ctx, ds, threads)
	if err != nil {
		r.fail(fmt.Sprintf("replica t=%d", threads), err)
		return
	}
	ok = r.check(fmt.Sprintf("replica t=%d", threads), fdDigest(l.fds), refDigest)
	l.fds = nil
	return
}

// layerSamples collects traced discoveries for per-layer medians.
type layerSamples struct {
	byThreads map[int][]layers
	gcCycles  []float64
	gcPause   []float64
	allocMB   []float64
	overhead  []float64
	residual  []float64
}

func newLayerSamples() *layerSamples {
	return &layerSamples{byThreads: map[int][]layers{}}
}

// add records one tracedDiscovery outcome.
func (s *layerSamples) add(threads int, plain time.Duration, gc runtime.MemStats, l layers) {
	s.byThreads[threads] = append(s.byThreads[threads], l)
	s.overhead = append(s.overhead, 100*(l.total.Seconds()-plain.Seconds())/plain.Seconds())
	if threads == 1 {
		s.gcCycles = append(s.gcCycles, float64(gc.NumGC))
		s.gcPause = append(s.gcPause, float64(gc.PauseTotalNs)/1e6)
		s.allocMB = append(s.allocMB, float64(gc.TotalAlloc)/(1<<20))
		s.residual = append(s.residual, ms(plain-l.calls()))
	}
}

// record sets the engine-layer metrics from the collected samples.
func (s *layerSamples) record(r *run) {
	pick := func(threads int, f func(layers) float64) float64 {
		var xs []float64
		for _, l := range s.byThreads[threads] {
			xs = append(xs, f(l))
		}
		return median(xs)
	}
	r.set("sampler.run_ms", pick(1, func(l layers) float64 { return ms(l.sampler) }))
	r.set("sampler.run_t2_ms", pick(parallelism, func(l layers) float64 { return ms(l.sampler) }))
	r.set("sampler.comparisons", pick(1, func(l layers) float64 { return float64(l.comparisons) }))
	r.set("sampler.windows", pick(1, func(l layers) float64 { return float64(l.windows) }))
	r.set("sampler.observations", pick(1, func(l layers) float64 { return float64(l.observations) }))
	r.set("sampler.yield", pick(1, func(l layers) float64 { return float64(l.observations) / max(1, float64(l.comparisons)) }))
	r.set("sampler.alloc_mb", pick(1, func(l layers) float64 { return float64(l.samplerAlloc) / (1 << 20) }))
	r.set("inductor.update_ms", pick(1, func(l layers) float64 { return ms(l.inductor) }))
	r.set("validator.run_ms", pick(1, func(l layers) float64 { return ms(l.validator) }))
	r.set("validator.run_t2_ms", pick(parallelism, func(l layers) float64 { return ms(l.validator) }))
	r.set("validator.validations", pick(1, func(l layers) float64 { return float64(l.validations) }))
	r.set("validator.invalid_ratio", pick(1, func(l layers) float64 { return float64(l.invalid) / max(1, float64(l.valid+l.invalid)) }))
	r.set("validator.suggestions", pick(1, func(l layers) float64 { return float64(l.suggestions) }))
	r.set("validator.alloc_mb", pick(1, func(l layers) float64 { return float64(l.validatorAlloc) / (1 << 20) }))
	r.set("fdtree.nodes", pick(1, func(l layers) float64 { return float64(l.nodes) }))
	r.set("fdtree.bytes", pick(1, func(l layers) float64 { return float64(l.treeBytes) }))
	r.set("fdtree.extract_ms", pick(1, func(l layers) float64 { return ms(l.extract) }))
	r.set("guardian.check_ms", pick(1, func(l layers) float64 { return ms(l.guardian) }))
	r.set("core.rounds", pick(1, func(l layers) float64 { return float64(l.rounds) }))
	r.set("core.phase_switches", pick(1, func(l layers) float64 { return float64(l.switches) }))
	r.set("core.residual_ms", median(s.residual))
	r.set("gc.cycles", median(s.gcCycles))
	r.set("gc.pause_ms", median(s.gcPause))
	r.set("alloc_mb", median(s.allocMB))
	r.set("trace.overhead_pct", median(s.overhead))
}

// traceFD is the traced fd-* run: rounds of untraced and replica
// discoveries at both thread counts for the run's measurement time.
func traceFD(ctx context.Context, r *run, ds *hyfd.Dataset, refDigest string) error {
	s := newLayerSamples()
	start := time.Now()
	for i := 0; i == 0 || time.Since(start).Seconds() < r.cfg.seconds; i++ {
		for _, threads := range pairOrder(i) {
			plain, gc, l, ok := tracedDiscovery(ctx, r, ds, threads, refDigest)
			if ok {
				s.add(threads, plain, gc, l)
			}
		}
	}
	s.record(r)
	return nil
}
