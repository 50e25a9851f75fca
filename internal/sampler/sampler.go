// Package sampler implements HyFD's focused sampling (§6, Alg. 2): the
// column-efficient half of Phase 1. It compares PLI-compressed records
// inside sliding windows over sorted PLI clusters, progressively widening
// the window of whichever attribute sortation currently yields the most new
// FD-violations per comparison, and stops once every sortation's efficiency
// falls below the (progressively relaxed) threshold.
package sampler

import (
	"container/heap"
	"context"
	"runtime"
	"sort"
	"sync"

	"hyfd/internal/bitset"
	"hyfd/internal/pli"
)

// DefaultEfficiencyThreshold is the paper's recommended initial sampling
// efficiency: one new FD-violation per 100 comparisons.
const DefaultEfficiencyThreshold = 0.01

// cancelStride bounds how many record-pair comparisons may pass between two
// context checks inside a cluster scan; it keeps cancellation latency small
// on datasets whose clusters span most of the relation while keeping the
// per-comparison overhead negligible. Must be a power of two.
const cancelStride = 4096

// efficiency tracks the sampling performance of one attribute's sortation.
type efficiency struct {
	attr      int
	window    int
	comps     int64
	results   int64
	exhausted bool // window outgrew every cluster; no comparisons left
	heapIdx   int
}

func (e *efficiency) eval() float64 {
	if e.exhausted || e.comps == 0 {
		return 0
	}
	return float64(e.results) / float64(e.comps)
}

// effQueue is a max-heap of efficiencies.
type effQueue []*efficiency

func (q effQueue) Len() int            { return len(q) }
func (q effQueue) Less(i, j int) bool  { return q[i].eval() > q[j].eval() }
func (q effQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i]; q[i].heapIdx = i; q[j].heapIdx = j }
func (q *effQueue) Push(x interface{}) { e := x.(*efficiency); e.heapIdx = len(*q); *q = append(*q, e) }
func (q *effQueue) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

// Sampler detects FD-violations (non-FDs) by windowed record comparisons.
// It keeps all observations across calls; Run returns only new ones.
type Sampler struct {
	ix        *pli.Index
	threshold float64
	queue     effQueue
	// sorted holds, per attribute, its PLI clusters re-sorted by the
	// neighbor-attribute keys of Fig. 3(1).
	sorted      [][][]int32
	seen        map[string]struct{}
	initialized bool
	unfocused   bool
	threads     int

	// Comparisons counts record-pair comparisons over the sampler's life
	// (telemetry for the evaluation).
	Comparisons int64
	// Windows counts cluster-window runs over the sampler's life — the
	// sampler's unit of work, one per efficiency-queue pop (telemetry for
	// trace.SamplingRound).
	Windows int64
	// WindowEfficiencies holds the new violations per comparison of each
	// window run of the latest Run that made comparisons, in run order
	// (telemetry for trace.SamplingRound). Every Run starts a new slice, so
	// an earlier round's slice is never modified.
	WindowEfficiencies []float64
}

// Config parameterizes a Sampler. It replaces the former per-component
// setters so the engine's single thread knob configures the sampler
// atomically at construction time.
type Config struct {
	// Threshold is the initial sampling efficiency cutoff; any value <= 0
	// picks DefaultEfficiencyThreshold.
	Threshold float64
	// Threads is the worker count for parallel cluster sortation and
	// window runs (§10.4: the comparisons are independent of one another);
	// 1 is sequential, any value <= 0 picks runtime.GOMAXPROCS(0). Every
	// thread count produces the same observations in the same order.
	Threads int
	// Unfocused disables the neighborhood sortation of Fig. 3(1): windows
	// then slide over clusters in raw record order. This ablation
	// quantifies the contribution of focused sampling; it affects
	// efficiency only, never correctness.
	Unfocused bool
}

// New returns a Sampler over the preprocessed index.
func New(ix *pli.Index, cfg Config) *Sampler {
	threshold := cfg.Threshold
	if threshold <= 0 {
		threshold = DefaultEfficiencyThreshold
	}
	threads := cfg.Threads
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	return &Sampler{
		ix:        ix,
		threshold: threshold,
		threads:   threads,
		unfocused: cfg.Unfocused,
		seen:      make(map[string]struct{}),
	}
}

// Threshold returns the current sampling efficiency threshold.
func (s *Sampler) Threshold() float64 { return s.threshold }

// Run performs one sampling round and returns the FD-violations first
// observed during this round, as bitsets of the attributes in which the
// compared records agree. On the first call it sorts all clusters and seeds
// every attribute with a window of two; on later calls it halves the
// efficiency threshold and replays the Validator's comparison suggestions
// before resuming the progressive window search.
//
// The context is checked between clusters and every cancelStride
// comparisons inside them; a canceled run returns ctx.Err() promptly and
// leaves the sampler in a consistent (but unfinished) state.
func (s *Sampler) Run(ctx context.Context, suggestions []pli.Pair) ([]bitset.Set, error) {
	s.WindowEfficiencies = nil
	var newObs []bitset.Set
	if !s.initialized {
		s.initialized = true
		if err := s.sortClusters(ctx); err != nil {
			return nil, err
		}
		s.queue = make(effQueue, 0, s.ix.NumCols)
		for attr := 0; attr < s.ix.NumCols; attr++ {
			e := &efficiency{attr: attr, window: 2}
			if err := s.runWindow(ctx, e, &newObs); err != nil {
				return nil, err
			}
			heap.Push(&s.queue, e)
		}
	} else {
		s.threshold /= 2
		for i, sug := range suggestions {
			if i%cancelStride == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			s.match(sug.A, sug.B, &newObs)
		}
	}
	for len(s.queue) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		best := s.queue[0]
		if best.eval() < s.threshold {
			break
		}
		best.window++
		if err := s.runWindow(ctx, best, &newObs); err != nil {
			return nil, err
		}
		heap.Fix(&s.queue, 0)
	}
	return newObs, nil
}

// sortClusters builds, for every attribute, a private copy of its clusters
// with the records sorted by their cluster ids in neighboring attributes of
// the distinctness order (Fig. 3(1)): the left neighbor has more clusters
// (a promising key), ties fall back to the right neighbor. Distinct sort
// keys per attribute give each record a different neighborhood in each of
// its clusters. Attributes are independent, so with threads configured they
// sort on a worker pool; each attribute's sortation is deterministic, so
// the result is identical for every thread count. The context is checked
// once per attribute.
func (s *Sampler) sortClusters(ctx context.Context) error {
	s.sorted = make([][][]int32, s.ix.NumCols)
	pos := s.ix.Rank()
	sortAttr := func(attr int) {
		p := s.ix.Plis[attr]
		if s.unfocused {
			s.sorted[attr] = p.Clusters
			return
		}
		left, right := -1, -1
		if i := pos[attr]; i > 0 {
			left = s.ix.Order[i-1]
		}
		if i := pos[attr]; i+1 < s.ix.NumCols {
			right = s.ix.Order[i+1]
		}
		clusters := make([][]int32, len(p.Clusters))
		for ci, cluster := range p.Clusters {
			c := append([]int32(nil), cluster...)
			sort.SliceStable(c, func(x, y int) bool {
				if left >= 0 {
					lx, ly := s.ix.Records[c[x]][left], s.ix.Records[c[y]][left]
					if lx != ly {
						return lx < ly
					}
				}
				if right >= 0 {
					rx, ry := s.ix.Records[c[x]][right], s.ix.Records[c[y]][right]
					if rx != ry {
						return rx < ry
					}
				}
				return c[x] < c[y]
			})
			clusters[ci] = c
		}
		s.sorted[attr] = clusters
	}
	if s.threads > 1 && s.ix.NumCols > 1 {
		var wg sync.WaitGroup
		work := make(chan int)
		workers := s.threads
		if workers > s.ix.NumCols {
			workers = s.ix.NumCols
		}
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for attr := range work {
					if ctx.Err() != nil {
						continue // drain the channel without working
					}
					sortAttr(attr)
				}
			}()
		}
		for attr := 0; attr < s.ix.NumCols; attr++ {
			work <- attr
		}
		close(work)
		wg.Wait()
		return ctx.Err()
	}
	for attr := 0; attr < s.ix.NumCols; attr++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		sortAttr(attr)
	}
	return nil
}

// runWindow compares every record to its (window-1)-distant successor in
// each cluster of the attribute's sortation (Alg. 2 lines 27-35). With
// threads configured, clusters are matched by a worker pool; the workers
// build raw agree-sets and the merge deduplicates sequentially, keeping
// the observation order deterministic.
func (s *Sampler) runWindow(ctx context.Context, e *efficiency, newObs *[]bitset.Set) error {
	before := len(*newObs)
	comps := int64(0)
	clusters := s.sorted[e.attr]
	if s.threads > 1 && len(clusters) > 1 {
		var err error
		comps, err = s.runWindowParallel(ctx, e.window, clusters, newObs)
		if err != nil {
			return err
		}
	} else {
		for _, cluster := range clusters {
			if err := ctx.Err(); err != nil {
				return err
			}
			for i := 0; i+e.window-1 < len(cluster); i++ {
				s.match(cluster[i], cluster[i+e.window-1], newObs)
				comps++
				if comps%cancelStride == 0 {
					if err := ctx.Err(); err != nil {
						return err
					}
				}
			}
		}
	}
	if comps == 0 {
		e.exhausted = true
	}
	e.comps += comps
	e.results += int64(len(*newObs) - before)
	s.Windows++
	if comps > 0 {
		s.WindowEfficiencies = append(s.WindowEfficiencies, float64(len(*newObs)-before)/float64(comps))
	}
	return nil
}

// runWindowParallel fans the clusters of one window run out over workers.
// Workers re-check the context before every cluster; on cancellation the
// remaining work items drain without being processed and the partial round
// is discarded by the caller.
func (s *Sampler) runWindowParallel(ctx context.Context, window int, clusters [][]int32, newObs *[]bitset.Set) (int64, error) {
	perCluster := make([][]bitset.Set, len(clusters))
	var comps int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < s.threads; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := int64(0)
			for ci := range work {
				if ctx.Err() != nil {
					continue // drain the channel without working
				}
				cluster := clusters[ci]
				var sets []bitset.Set
				for i := 0; i+window-1 < len(cluster); i++ {
					ra, rb := s.ix.Records[cluster[i]], s.ix.Records[cluster[i+window-1]]
					agree := bitset.New(s.ix.NumCols)
					for attr := range ra {
						if ra[attr] != pli.Singleton && ra[attr] == rb[attr] {
							agree.Set(attr)
						}
					}
					sets = append(sets, agree)
					local++
				}
				perCluster[ci] = sets
			}
			mu.Lock()
			comps += local
			mu.Unlock()
		}()
	}
	for ci := range clusters {
		work <- ci
	}
	close(work)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	s.Comparisons += comps
	for _, sets := range perCluster {
		for _, agree := range sets {
			key := agree.Key()
			if _, dup := s.seen[key]; dup {
				continue
			}
			s.seen[key] = struct{}{}
			*newObs = append(*newObs, agree)
		}
	}
	return comps, nil
}

// match compares two compressed records and records the agree-set bitset if
// it is a new observation. Singleton cluster ids never match, mirroring
// stripped-partition semantics.
func (s *Sampler) match(a, b int32, newObs *[]bitset.Set) {
	s.Comparisons++
	ra, rb := s.ix.Records[a], s.ix.Records[b]
	agree := bitset.New(s.ix.NumCols)
	for attr := range ra {
		if ra[attr] != pli.Singleton && ra[attr] == rb[attr] {
			agree.Set(attr)
		}
	}
	key := agree.Key()
	if _, dup := s.seen[key]; dup {
		return
	}
	s.seen[key] = struct{}{}
	*newObs = append(*newObs, agree)
}

// ObservationCount returns the number of distinct FD-violations seen so far.
func (s *Sampler) ObservationCount() int { return len(s.seen) }
