// Package validator implements HyFD's Phase 2 (§8, Alg. 4): a row-efficient,
// level-wise traversal of the candidate FDTree that validates each node's FD
// candidates directly against the single-attribute PLIs — no hierarchical
// PLI intersections — and specializes invalid candidates into new minimal
// ones. When a level produces too many invalid candidates the Validator
// hands control back to the Sampler along with the record pairs that
// witnessed violations.
package validator

import (
	"context"
	"encoding/binary"
	"runtime"
	"sync"
	"time"

	"hyfd/internal/bitset"
	"hyfd/internal/fd"
	"hyfd/internal/fdtree"
	"hyfd/internal/invariant"
	"hyfd/internal/pli"
	"hyfd/internal/trace"
)

// DefaultInvalidThreshold is the paper's Phase 2 efficiency cutoff: switch
// back to sampling when more than 1 % of a level's candidates are invalid.
const DefaultInvalidThreshold = 0.01

// Result reports the outcome of one Validator run.
type Result struct {
	// Done is true when every candidate was validated; the FDTree then
	// holds exactly the minimal FDs of the dataset.
	Done bool
	// Suggestions are record pairs that violated candidates, handed to the
	// Sampler when Done is false.
	Suggestions []pli.Pair
	// ValidFds / InvalidFds count candidate validations of this run.
	ValidFds, InvalidFds int
	// Stopped is true when a WithLevelFunc callback ended the run early
	// (ranked top-k cut). The tree then still holds unvalidated candidates
	// and Done is false.
	Stopped bool
}

// Validator validates FD candidates level-wise against the full dataset.
// Its level counter persists across runs, so after a phase switch it
// resumes where it stopped; the level's nodes are re-collected from the
// tree each time because the Inductor may have restructured the candidate
// frontier in between.
type Validator struct {
	ix        *pli.Index
	tree      *fdtree.Tree
	threshold float64
	threads   int
	intersect bool
	cache     *pli.Cache
	observer  trace.Observer
	levelFn   func(level int, valid []fd.FD) bool

	levelNumber int

	// Validations counts validated FDTree nodes over the Validator's life.
	Validations int64
}

// Option customizes a Validator.
type Option func(*Validator)

// WithInvalidThreshold sets the fraction of invalid candidates per level
// above which the Validator switches back to sampling.
func WithInvalidThreshold(t float64) Option {
	return func(v *Validator) { v.threshold = t }
}

// WithThreads sets the number of worker goroutines used for node
// validation; 1 means sequential, any value <= 0 picks
// runtime.GOMAXPROCS(0) — the engine-wide thread-count contract.
func WithThreads(n int) Option {
	return func(v *Validator) {
		if n <= 0 {
			n = runtime.GOMAXPROCS(0)
		}
		v.threads = n
	}
}

// WithObserver subscribes an observer to per-level trace.ValidationLevel
// events. Events are emitted from the coordinating goroutine only, after
// each level completes, so the observer never sees concurrent calls from
// the validator.
func WithObserver(o trace.Observer) Option {
	return func(v *Validator) { v.observer = o }
}

// WithLevelFunc registers a per-level callback for ranked discovery. After
// each level completes — specializations applied, trace event emitted — fn
// receives the finished level number and the FDs it validated, in the
// level's deterministic node order (each LHS is an independent clone).
// Returning false stops the run immediately with Result.Stopped set. The
// callback runs on the coordinating goroutine, never concurrently.
func WithLevelFunc(fn func(level int, valid []fd.FD) bool) Option {
	return func(v *Validator) { v.levelFn = fn }
}

// WithIntersectionValidation replaces HyFD's direct refinement checks with
// classic hierarchical PLI intersections (the TANE-style check, with a
// partition cache). This ablation exists to measure what §8 claims the
// direct validation buys: it forces sequential execution and retains every
// intermediate partition, trading memory and time for nothing.
func WithIntersectionValidation() Option {
	return func(v *Validator) { v.intersect = true }
}

// New returns a Validator over the preprocessed index and candidate tree.
func New(ix *pli.Index, tree *fdtree.Tree, opts ...Option) *Validator {
	v := &Validator{ix: ix, tree: tree, threshold: DefaultInvalidThreshold, threads: 1}
	for _, o := range opts {
		o(v)
	}
	return v
}

// invalidFd pairs an invalid candidate with its RHS.
type invalidFd struct {
	lhs bitset.Set
	rhs int
}

// nodeResult carries one node's validation outcome between workers and the
// sequential merge.
type nodeResult struct {
	valid       bitset.Set
	invalid     []invalidFd
	suggestions []pli.Pair
	numRhss     int
}

// Run resumes (or starts) the level-wise validation. With exhaustive=false
// it returns early — Done=false plus suggestions — once a level exceeds the
// invalid-candidate threshold; with exhaustive=true it always runs to
// completion (used when the Sampler has nothing new to offer).
//
// The context is checked before every level and between nodes inside a
// level (including by the parallel workers); a canceled run returns
// ctx.Err() promptly and leaves the candidate tree consistent up to the
// last fully validated level.
func (v *Validator) Run(ctx context.Context, exhaustive bool) (*Result, error) {
	res := &Result{}
	for v.levelNumber <= v.tree.MaxLhs() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		level := v.tree.GetLevel(v.levelNumber)
		if len(level) == 0 {
			break
		}
		//hyfdvet:allow determinism — wall-clock telemetry only; never influences the FD set
		levelStart := time.Now()
		suggestionsBefore := len(res.Suggestions)
		numValid, numInvalid := 0, 0
		var invalids []invalidFd
		var levelValid []fd.FD
		results, err := v.validateLevel(ctx, level)
		if err != nil {
			return nil, err
		}
		for i, nd := range level {
			r := results[i]
			if r.numRhss == 0 {
				continue
			}
			v.Validations++
			nd.SetFds(r.valid)
			numValid += r.valid.Cardinality()
			numInvalid += len(r.invalid)
			invalids = append(invalids, r.invalid...)
			res.Suggestions = append(res.Suggestions, r.suggestions...)
			if v.levelFn != nil {
				r.valid.ForEach(func(rhs int) bool {
					levelValid = append(levelValid, fd.FD{Lhs: nd.Lhs.Clone(), Rhs: rhs})
					return true
				})
			}
		}
		res.ValidFds += numValid
		res.InvalidFds += numInvalid

		// Specialize invalid candidates into the next level (Alg. 4 lines
		// 21-33); the next GetLevel picks the new nodes up.
		for _, inv := range invalids {
			v.specialize(inv)
		}
		if invariant.Enabled {
			v.assertLevelMinimal(level)
		}
		trace.Emit(v.observer, trace.ValidationLevel{
			Level:          v.levelNumber,
			Candidates:     numValid + numInvalid,
			Valid:          numValid,
			Invalid:        numInvalid,
			Suggestions:    len(res.Suggestions) - suggestionsBefore,
			Validations:    v.Validations,
			FootprintBytes: int64(v.tree.ApproxBytes()),
			//hyfdvet:allow determinism — wall-clock telemetry only; never influences the FD set
			Duration: time.Since(levelStart),
		})
		v.levelNumber++

		if v.levelFn != nil && !v.levelFn(v.levelNumber-1, levelValid) {
			res.Stopped = true
			return res, nil
		}

		// Phase-switch check (Alg. 4 line 36): the level produced too many
		// invalid candidates, so the approximation is still poor.
		if !exhaustive && float64(numInvalid) > v.threshold*float64(numValid) &&
			len(res.Suggestions) > 0 {
			return res, nil
		}
	}
	res.Done = true
	res.Suggestions = nil
	return res, nil
}

// specialize generates all minimal, non-trivial extensions of an invalid FD
// (Alg. 4 lines 21-33).
func (v *Validator) specialize(inv invalidFd) {
	for attr := 0; attr < v.ix.NumCols; attr++ {
		if inv.lhs.Test(attr) || inv.rhs == attr {
			continue // triviality
		}
		// Pruning rule 1: lhs → attr already valid, so adding attr to the
		// LHS adds no determination power; the extension stays invalid.
		if v.tree.FindFdOrGeneral(inv.lhs, attr) {
			continue
		}
		// Pruning rule 2: attr → rhs (or ∅ → rhs) already valid, so the
		// extension is non-minimal.
		if v.tree.FindFdOrGeneral(bitset.FromIndices(v.ix.NumCols, attr), inv.rhs) {
			continue
		}
		newLhs := inv.lhs.With(attr)
		if v.tree.FindFdOrGeneral(newLhs, inv.rhs) {
			continue // a validated generalization exists: non-minimal
		}
		v.tree.Add(newLhs, inv.rhs)
	}
}

// refiner validates one node's candidates against the data.
type refiner interface {
	refines(lhs bitset.Set, rhss bitset.Set) (bitset.Set, []pli.Pair)
}

// newRefiner builds the per-goroutine check implementation.
func (v *Validator) newRefiner() refiner {
	if v.intersect {
		if v.cache == nil {
			v.cache = pli.NewCache(v.ix.Plis, v.ix.NumRows)
		}
		return &intersectChecker{ix: v.ix, cache: v.cache}
	}
	return newChecker(v.ix)
}

// validateLevel runs refines on every node of the level, fanning out over
// the worker pool when configured. Intersection validation shares one
// partition cache and therefore always runs sequentially. The context is
// re-checked between nodes; on cancellation the parallel workers drain
// their queue without working and the partial results are discarded.
func (v *Validator) validateLevel(ctx context.Context, level []fdtree.Node) ([]nodeResult, error) {
	results := make([]nodeResult, len(level))
	if v.threads <= 1 || len(level) < 2 || v.intersect {
		ck := v.newRefiner()
		for i, nd := range level {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			results[i] = validateNode(ck, nd)
		}
		return results, nil
	}
	var wg sync.WaitGroup
	work := make(chan int)
	workers := v.threads
	if workers > len(level) {
		workers = len(level)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ck := newChecker(v.ix)
			for i := range work {
				if ctx.Err() != nil {
					continue // drain the channel without working
				}
				results[i] = validateNode(ck, level[i])
			}
		}()
	}
	for i := range level {
		work <- i
	}
	close(work)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// validateNode validates all FD candidates of one node simultaneously.
func validateNode(ck refiner, nd fdtree.Node) nodeResult {
	rhss := nd.RhsFds()
	numRhss := rhss.Cardinality()
	if numRhss == 0 {
		return nodeResult{numRhss: 0}
	}
	valid, suggestions := ck.refines(nd.Lhs, rhss)
	r := nodeResult{valid: valid, suggestions: suggestions, numRhss: numRhss}
	invalid := rhss.AndNot(valid)
	invalid.ForEach(func(rhs int) bool {
		r.invalid = append(r.invalid, invalidFd{lhs: nd.Lhs, rhs: rhs})
		return true
	})
	return r
}

// checker performs direct refinement checks (Fig. 5). One checker per
// goroutine; it reuses its buffers across nodes to keep the hot path
// allocation-free (refines dominates HyFD's runtime on FD-rich datasets).
type checker struct {
	ix     *pli.Index
	rank   []int
	keyBuf []byte
	// Per-cluster scratch: recs holds the representative record of each
	// distinct LHS group, rhsArena the group's RHS cluster ids (flat,
	// groupWidth per group).
	recs     []int32
	rhsArena []int32
	// probe/probeStamp implement an O(1) cid → group lookup for the
	// two-attribute LHS case (one non-pivot attribute), replacing the
	// hash map on the hottest validation levels.
	probe      []int32
	probeStamp []int32
	stamp      int32
}

func newChecker(ix *pli.Index) *checker {
	return &checker{
		ix:         ix,
		rank:       ix.Rank(),
		probe:      make([]int32, ix.NumRows),
		probeStamp: make([]int32, ix.NumRows),
	}
}

// refines reports which RHS attributes are functionally determined by lhs,
// checking all candidates of one FDTree node in a single pass over the
// pivot PLI. It also returns record pairs witnessing violations.
func (ck *checker) refines(lhs bitset.Set, rhss bitset.Set) (bitset.Set, []pli.Pair) {
	ix := ck.ix
	lhsAttrs := lhs.Indices()

	// Level 0: ∅ → A holds iff column A is constant.
	if len(lhsAttrs) == 0 {
		valid := bitset.New(ix.NumCols)
		var suggestions []pli.Pair
		rhss.ForEach(func(rhs int) bool {
			p := ix.Plis[rhs]
			if p.IsConstant() {
				valid.Set(rhs)
			} else if pair, ok := constantViolation(p); ok {
				suggestions = append(suggestions, pair)
			}
			return true
		})
		return valid, suggestions
	}

	// Pivot: the LHS attribute with the most clusters (lowest rank in the
	// descending-distinctness order), i.e. the smallest clusters to scan.
	pivot := lhsAttrs[0]
	for _, a := range lhsAttrs[1:] {
		if ck.rank[a] < ck.rank[pivot] {
			pivot = a
		}
	}
	rest := make([]int, 0, len(lhsAttrs)-1)
	for _, a := range lhsAttrs {
		if a != pivot {
			rest = append(rest, a)
		}
	}
	rhsAttrs := rhss.Indices()

	valid := rhss.Clone()
	remaining := len(rhsAttrs)
	var suggestions []pli.Pair
	width := len(rhsAttrs)

	// checkAgainst compares the record's RHS cluster ids against the group
	// entry at index gi; it returns false when every RHS is invalidated.
	checkAgainst := func(gi int, rec int32, row []int32) bool {
		groupRhss := ck.rhsArena[gi*width : (gi+1)*width]
		violated := false
		for i, a := range rhsAttrs {
			if !valid.Test(a) {
				continue
			}
			// A Singleton RHS id means a unique value, which never agrees.
			cid := row[a]
			if cid == pli.Singleton || cid != groupRhss[i] {
				valid.Clear(a)
				remaining--
				violated = true
			}
		}
		if violated {
			suggestions = append(suggestions, pli.Pair{A: ck.recs[gi], B: rec})
			if remaining == 0 {
				return false
			}
		}
		return true
	}
	addGroup := func(rec int32, row []int32) int {
		gi := len(ck.recs)
		ck.recs = append(ck.recs, rec)
		for _, a := range rhsAttrs {
			ck.rhsArena = append(ck.rhsArena, row[a])
		}
		return gi
	}

	if len(rest) == 0 {
		// Fast path (common at level 1): the whole cluster is one LHS
		// group; compare everyone against the first record.
		for _, cluster := range ix.Plis[pivot].Clusters {
			ck.recs, ck.rhsArena = ck.recs[:0], ck.rhsArena[:0]
			addGroup(cluster[0], ix.Records[cluster[0]])
			for _, rec := range cluster[1:] {
				if !checkAgainst(0, rec, ix.Records[rec]) {
					return valid, suggestions
				}
			}
		}
		return valid, suggestions
	}

	if len(rest) == 1 {
		// Two-attribute LHS: the non-pivot cluster id is the group key;
		// a stamped probe array replaces the hash map.
		a0 := rest[0]
		for _, cluster := range ix.Plis[pivot].Clusters {
			ck.recs, ck.rhsArena = ck.recs[:0], ck.rhsArena[:0]
			ck.stamp++
			for _, rec := range cluster {
				row := ix.Records[rec]
				cid := row[a0]
				if cid == pli.Singleton {
					continue // unique in the LHS
				}
				if ck.probeStamp[cid] != ck.stamp {
					ck.probeStamp[cid] = ck.stamp
					ck.probe[cid] = int32(addGroup(rec, row))
					continue
				}
				if !checkAgainst(int(ck.probe[cid]), rec, row) {
					return valid, suggestions
				}
			}
		}
		return valid, suggestions
	}

	for _, cluster := range ix.Plis[pivot].Clusters {
		ck.recs, ck.rhsArena = ck.recs[:0], ck.rhsArena[:0]
		seen := make(map[string]int, len(cluster))
	recordLoop:
		for _, rec := range cluster {
			row := ix.Records[rec]
			// Build the LHS key from the non-pivot attributes; a singleton
			// makes the record unique in the LHS, so it cannot collide.
			ck.keyBuf = ck.keyBuf[:0]
			for _, a := range rest {
				cid := row[a]
				if cid == pli.Singleton {
					continue recordLoop
				}
				ck.keyBuf = binary.LittleEndian.AppendUint32(ck.keyBuf, uint32(cid))
			}
			gi, ok := seen[string(ck.keyBuf)] // no alloc on lookup
			if !ok {
				seen[string(ck.keyBuf)] = addGroup(rec, row)
				continue
			}
			if !checkAgainst(gi, rec, row) {
				return valid, suggestions
			}
		}
	}
	return valid, suggestions
}

// constantViolation extracts a witness pair for a non-constant column: two
// records with different values.
func constantViolation(p *pli.PLI) (pli.Pair, bool) {
	switch {
	case len(p.Clusters) >= 2:
		return pli.Pair{A: p.Clusters[0][0], B: p.Clusters[1][0]}, true
	case len(p.Clusters) == 1 && len(p.Clusters[0]) < p.NumRows:
		// One cluster plus at least one singleton: find a record outside
		// the cluster.
		in := make(map[int32]bool, len(p.Clusters[0]))
		for _, r := range p.Clusters[0] {
			in[r] = true
		}
		for r := int32(0); int(r) < p.NumRows; r++ {
			if !in[r] {
				return pli.Pair{A: p.Clusters[0][0], B: r}, true
			}
		}
	case len(p.Clusters) == 0 && p.NumRows >= 2:
		return pli.Pair{A: 0, B: 1}, true
	}
	return pli.Pair{}, false
}

// intersectChecker validates candidates with hierarchical PLI
// intersections through a shared partition cache — the strategy of the
// lattice-traversal baselines that HyFD's direct validation (§8) avoids.
type intersectChecker struct {
	ix    *pli.Index
	cache *pli.Cache
}

func (c *intersectChecker) refines(lhs bitset.Set, rhss bitset.Set) (bitset.Set, []pli.Pair) {
	valid := bitset.New(c.ix.NumCols)
	var suggestions []pli.Pair
	if lhs.IsEmpty() {
		rhss.ForEach(func(rhs int) bool {
			p := c.ix.Plis[rhs]
			if p.IsConstant() {
				valid.Set(rhs)
			} else if pair, ok := constantViolation(p); ok {
				suggestions = append(suggestions, pair)
			}
			return true
		})
		return valid, suggestions
	}
	lp := c.cache.Partition(lhs)
	lhsErr := lp.Error()
	rhss.ForEach(func(rhs int) bool {
		rp := c.cache.Partition(lhs.With(rhs))
		if rp.Error() == lhsErr {
			valid.Set(rhs)
			return true
		}
		if pair, ok := violationWitness(c.ix, lp, rhs); ok {
			suggestions = append(suggestions, pair)
		}
		return true
	})
	return valid, suggestions
}

// violationWitness locates two records of one LHS cluster with different
// RHS values.
func violationWitness(ix *pli.Index, lp *pli.Partition, rhs int) (pli.Pair, bool) {
	for _, cluster := range lp.Clusters {
		first := cluster[0]
		fid := ix.Records[first][rhs]
		for _, rec := range cluster[1:] {
			cid := ix.Records[rec][rhs]
			if cid == pli.Singleton || fid == pli.Singleton || cid != fid {
				return pli.Pair{A: first, B: rec}, true
			}
		}
	}
	return pli.Pair{}, false
}
