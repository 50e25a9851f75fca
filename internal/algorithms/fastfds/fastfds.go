// Package fastfds implements the FastFDs algorithm of Wyss, Giannella &
// Robertson (2001): derive difference sets from agree sets, then find the
// minimal covers per right-hand-side attribute with a greedy depth-first
// search that always branches on the attribute covering the most remaining
// difference sets. Same derivation base as Dep-Miner, different cover
// search.
package fastfds

import (
	"context"
	"fmt"
	"sort"

	"hyfd/internal/algorithms"
	"hyfd/internal/algorithms/agreeset"
	"hyfd/internal/bitset"
	"hyfd/internal/dataset"
	"hyfd/internal/fd"
)

// FastFDs discovers FDs via depth-first minimal cover search.
type FastFDs struct{}

// New returns a FastFDs instance.
func New() *FastFDs { return &FastFDs{} }

// Name implements algorithms.Algorithm.
func (*FastFDs) Name() string { return "FastFDs" }

// Discover implements algorithms.Algorithm. The pair enumeration carries
// its own cancellation checkpoints (see agreeset.Compute); the DFS cover
// search checks the context once per recursive call. A MaxLhsSize bound is
// applied to the finished result, since the DFS emits covers in
// heuristic — not level — order.
func (*FastFDs) Discover(ctx context.Context, ds *dataset.Dataset, cfg algorithms.Config) (*fd.Set, error) {
	m := ds.NumCols()
	out := fd.NewSet(m)
	if m == 0 {
		return out, nil
	}
	ix := ds.Index()
	ag, err := agreeset.Compute(ctx, ix)
	if err != nil {
		return nil, fmt.Errorf("FastFDs: discovery interrupted: %w", err)
	}
	diffs := agreeset.DifferenceSets(m, ag)

	for a := 0; a < m; a++ {
		// D_A: difference sets containing A, with A removed; X → A valid
		// iff X (A ∉ X) hits every one of them. Only minimal difference
		// sets matter for covering.
		var dA []bitset.Set
		infeasible := false
		for _, d := range diffs {
			if !d.Test(a) {
				continue
			}
			rest := d.Without(a)
			if rest.IsEmpty() {
				infeasible = true // some pair disagrees only on A
				break
			}
			dA = append(dA, rest)
		}
		if infeasible {
			continue
		}
		if len(dA) == 0 {
			out.Add(fd.FD{Lhs: bitset.New(m), Rhs: a})
			continue
		}
		dA = agreeset.Minimize(dA)
		s := &search{ctx: ctx, m: m, rhs: a, diffs: dA, out: out}
		order := s.orderAttrs(dA, bitset.New(m))
		if err := s.findCovers(dA, bitset.New(m), order); err != nil {
			return nil, err
		}
	}
	return algorithms.Truncate(out, cfg.MaxLhsSize), nil
}

// search carries the per-RHS DFS state.
type search struct {
	ctx   context.Context
	m     int
	rhs   int
	diffs []bitset.Set // the full (minimized) difference set collection
	out   *fd.Set
}

// orderAttrs ranks candidate attributes by how many of the remaining
// difference sets they cover, descending, ties by ascending index — the
// FastFDs ordering heuristic.
func (s *search) orderAttrs(remaining []bitset.Set, path bitset.Set) []int {
	counts := make([]int, s.m)
	for _, d := range remaining {
		d.ForEach(func(attr int) bool {
			counts[attr]++
			return true
		})
	}
	var attrs []int
	for attr := 0; attr < s.m; attr++ {
		if attr != s.rhs && !path.Test(attr) && counts[attr] > 0 {
			attrs = append(attrs, attr)
		}
	}
	sort.Slice(attrs, func(i, j int) bool {
		if counts[attrs[i]] != counts[attrs[j]] {
			return counts[attrs[i]] > counts[attrs[j]]
		}
		return attrs[i] < attrs[j]
	})
	return attrs
}

// findCovers explores covers depth-first. remaining holds the difference
// sets not yet hit by path; order is the current ordering of candidate
// attributes (attributes after position i are the only ones considered in
// the i-th branch, which prevents duplicate enumeration).
func (s *search) findCovers(remaining []bitset.Set, path bitset.Set, order []int) error {
	if err := algorithms.Canceled(s.ctx, "FastFDs"); err != nil {
		return err
	}
	if len(remaining) == 0 {
		// path covers everything; emit only minimal covers.
		if s.isMinimalCover(path) {
			s.out.Add(fd.FD{Lhs: path, Rhs: s.rhs})
		}
		return nil
	}
	if len(order) == 0 {
		return nil // uncovered sets remain but no attributes left
	}
	for i, attr := range order {
		var rest []bitset.Set
		for _, d := range remaining {
			if !d.Test(attr) {
				rest = append(rest, d)
			}
		}
		newPath := path.With(attr)
		tail := order[i+1:]
		if len(rest) == 0 {
			if s.isMinimalCover(newPath) {
				s.out.Add(fd.FD{Lhs: newPath, Rhs: s.rhs})
			}
			continue
		}
		// Re-rank the tail by coverage of the reduced collection, keeping
		// only attributes that still cover something.
		reordered := s.reorder(tail, rest)
		if err := s.findCovers(rest, newPath, reordered); err != nil {
			return err
		}
	}
	return nil
}

// reorder keeps the tail attributes that cover at least one remaining set,
// re-sorted by the coverage heuristic.
func (s *search) reorder(tail []int, remaining []bitset.Set) []int {
	counts := make(map[int]int)
	for _, d := range remaining {
		d.ForEach(func(attr int) bool {
			counts[attr]++
			return true
		})
	}
	var attrs []int
	for _, attr := range tail {
		if counts[attr] > 0 {
			attrs = append(attrs, attr)
		}
	}
	sort.Slice(attrs, func(i, j int) bool {
		if counts[attrs[i]] != counts[attrs[j]] {
			return counts[attrs[i]] > counts[attrs[j]]
		}
		return attrs[i] < attrs[j]
	})
	return attrs
}

// isMinimalCover verifies that removing any attribute of the cover leaves
// some difference set uncovered (the FastFDs leaf check).
func (s *search) isMinimalCover(cover bitset.Set) bool {
	minimal := true
	cover.ForEach(func(attr int) bool {
		reduced := cover.Without(attr)
		for _, d := range s.diffs {
			if !reduced.Intersects(d) {
				return true // attr is necessary; try next attr
			}
		}
		minimal = false
		return false
	})
	return minimal
}
