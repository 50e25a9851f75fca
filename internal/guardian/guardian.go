// Package guardian implements HyFD's memory Guardian (§9): a best-effort
// watchdog that bounds the result FDTree's footprint by successively
// lowering its maximum LHS size, sacrificing the largest (and most likely
// accidental) FDs first. The Guardian is optional; with no budget it never
// intervenes and the discovery stays complete.
package guardian

import "hyfd/internal/fdtree"

// Guardian watches one FDTree against a byte budget.
type Guardian struct {
	tree   *fdtree.Tree
	budget int

	// Pruned reports whether the Guardian ever discarded results; if true
	// the final FD set is a best-effort subset (all FDs up to the final
	// MaxLhs are still complete and minimal).
	Pruned bool
	// Interventions counts how many times the LHS bound was lowered.
	Interventions int
}

// New returns a Guardian over the tree. budget <= 0 disables it.
func New(tree *fdtree.Tree, budget int) *Guardian {
	return &Guardian{tree: tree, budget: budget}
}

// Check compares the tree's approximate footprint against the budget and,
// while it is exceeded, lowers the maximum LHS size below the current
// deepest result. Call it whenever the tree has grown (after induction and
// validation rounds).
func (g *Guardian) Check() {
	if g.budget <= 0 {
		return
	}
	for g.tree.ApproxBytes() > g.budget {
		d := g.tree.Depth()
		if d <= 1 {
			return // refuse to prune below single-attribute LHSs
		}
		limit := g.tree.MaxLhs()
		if d-1 < limit {
			limit = d - 1
		} else {
			limit--
		}
		g.tree.SetMaxLhs(limit)
		g.Pruned = true
		g.Interventions++
	}
}

// MaxLhs exposes the tree's current LHS bound.
func (g *Guardian) MaxLhs() int { return g.tree.MaxLhs() }

// Footprint exposes the tree's current approximate footprint in bytes —
// the same quantity Check compares against the budget (telemetry for the
// engine's trace events).
func (g *Guardian) Footprint() int64 { return int64(g.tree.ApproxBytes()) }
