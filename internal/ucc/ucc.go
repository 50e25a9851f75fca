// Package ucc discovers unique column combinations (UCCs): attribute sets
// whose value combinations identify records uniquely, i.e. candidate keys
// of the instance. UCC discovery is the sister problem of FD discovery —
// the HyFD authors' companion system HyUCC transfers the same hybrid
// architecture — and keys are what the paper's normalization use case (§1)
// ultimately needs. This implementation reuses the repository's PLI
// substrate: X is unique iff the stripped partition π_X has no clusters.
//
// Discovery is a bottom-up lattice search with partition caching.
package ucc

import (
	"context"
	"fmt"
	"sort"

	"hyfd/internal/bitset"
	"hyfd/internal/dataset"
)

// Discover returns all minimal unique column combinations of the prepared
// Dataset (whose null semantics apply), in canonical order (ascending
// cardinality, then lexicographic). maxSize bounds the combination size
// (0 = unbounded). The shared PLIs are only read, so concurrent calls over
// one Dataset are race-clean. Cancellation is checked once per lattice
// level; a canceled context returns an error wrapping ctx.Err() promptly
// instead of finishing the sweep.
func Discover(ctx context.Context, ds *dataset.Dataset, maxSize int) ([]bitset.Set, error) {
	m := ds.NumCols()
	if m == 0 {
		if ds.NumRows() <= 1 {
			return []bitset.Set{bitset.New(0)}, nil
		}
		return nil, nil
	}
	if maxSize <= 0 || maxSize > m {
		maxSize = m
	}
	cache := ds.NewCache()

	// The empty set is unique iff there is at most one record.
	if ds.NumRows() <= 1 {
		return []bitset.Set{bitset.New(m)}, nil
	}

	var found []bitset.Set
	dominated := func(x bitset.Set) bool {
		for _, u := range found {
			if u.IsSubsetOf(x) {
				return true
			}
		}
		return false
	}
	type cand struct {
		attrs bitset.Set
		last  int
	}
	level := make([]cand, 0, m)
	for a := 0; a < m; a++ {
		level = append(level, cand{attrs: bitset.FromIndices(m, a), last: a})
	}
	for len(level) > 0 && level[0].attrs.Cardinality() <= maxSize {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("ucc: discovery aborted: %w", err)
		}
		var next []cand
		for _, c := range level {
			if dominated(c.attrs) {
				continue
			}
			if len(cache.Partition(c.attrs).Clusters) == 0 {
				found = append(found, c.attrs)
				continue
			}
			for b := c.last + 1; b < m; b++ {
				next = append(next, cand{attrs: c.attrs.With(b), last: b})
			}
		}
		level = next
	}
	sortUCCs(found)
	return found, nil
}

func sortUCCs(uccs []bitset.Set) {
	sort.Slice(uccs, func(i, j int) bool {
		ci, cj := uccs[i].Cardinality(), uccs[j].Cardinality()
		if ci != cj {
			return ci < cj
		}
		return uccs[i].Key() < uccs[j].Key()
	})
}
