// Package depminer implements the Dep-Miner algorithm of Lopes, Petit &
// Lakhal (2000): compute the agree sets of all record pairs, keep for every
// attribute A the maximal agree sets not containing A, complement them, and
// derive the minimal FD left-hand sides as minimal transversals of the
// complements — enumerated level-wise as in the original. Dep-Miner scales
// with the number of attributes but, like all pair-based approaches, poorly
// with the number of records (§2 of the HyFD paper).
package depminer

import (
	"context"
	"fmt"

	"hyfd/internal/algorithms"
	"hyfd/internal/algorithms/agreeset"
	"hyfd/internal/algorithms/hitset"
	"hyfd/internal/bitset"
	"hyfd/internal/dataset"
	"hyfd/internal/fd"
)

// DepMiner discovers FDs via maximal agree sets and minimal covers.
type DepMiner struct{}

// New returns a Dep-Miner instance.
func New() *DepMiner { return &DepMiner{} }

// Name implements algorithms.Algorithm.
func (*DepMiner) Name() string { return "Dep-Miner" }

// Discover implements algorithms.Algorithm. The pair enumeration carries
// its own cancellation checkpoints (see agreeset.Compute); the transversal
// phase checks the context once per RHS attribute. A MaxLhsSize bound is
// applied to the finished result — the transversal enumeration is already
// level-wise minimal, so dropping deep LHSs afterwards loses nothing.
func (*DepMiner) Discover(ctx context.Context, ds *dataset.Dataset, cfg algorithms.Config) (*fd.Set, error) {
	m := ds.NumCols()
	out := fd.NewSet(m)
	if m == 0 {
		return out, nil
	}
	ix := ds.Index()
	ag, err := agreeset.Compute(ctx, ix)
	if err != nil {
		return nil, fmt.Errorf("Dep-Miner: discovery interrupted: %w", err)
	}

	for a := 0; a < m; a++ {
		if err := algorithms.Canceled(ctx, "Dep-Miner"); err != nil {
			return nil, err
		}
		// max(ag, A): maximal agree sets not containing A.
		var notA []bitset.Set
		for _, s := range ag {
			if !s.Test(a) {
				notA = append(notA, s)
			}
		}
		maxSets := agreeset.Maximize(notA)
		// cmax(A): complements of the maximal sets, with A removed — the
		// hypergraph whose minimal transversals are the minimal LHSs.
		cmax := make([]bitset.Set, len(maxSets))
		for i, s := range maxSets {
			cmax[i] = s.Flip().Without(a)
		}
		for _, lhs := range hitset.MinimalTransversals(m, cmax, a) {
			out.Add(fd.FD{Lhs: lhs, Rhs: a})
		}
	}
	return algorithms.Truncate(out, cfg.MaxLhsSize), nil
}
