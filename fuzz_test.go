package hyfd_test

import (
	"context"
	"testing"

	"hyfd"
	"hyfd/internal/fd"
	"hyfd/internal/rank"
)

// fuzzRelation shapes a small relation from raw fuzz bytes: the first two
// bytes pick the dimensions (1–5 columns, 0–23 rows), the rest fill cells
// row-major from a five-symbol alphabet — four letters plus NULL — so
// nulls, constant columns, and unique columns are all reachable. Missing
// bytes read as zero, keeping every input well-formed.
func fuzzRelation(data []byte) *hyfd.Relation {
	if len(data) < 2 {
		return nil
	}
	cols := 1 + int(data[0])%5
	rows := int(data[1]) % 24
	data = data[2:]
	names := make([]string, cols)
	for i := range names {
		names[i] = string(rune('A' + i))
	}
	rel := hyfd.NewRelation("fuzz", names)
	cell := 0
	for i := 0; i < rows; i++ {
		row := make([]string, cols)
		for j := range row {
			var b byte
			if cell < len(data) {
				b = data[cell]
			}
			cell++
			if b%7 == 6 {
				row[j] = hyfd.Null
			} else {
				row[j] = string(rune('a' + b%4))
			}
		}
		rel.AppendRow(row)
	}
	return rel
}

// FuzzDiscoverDifferential differentially fuzzes the public Discover entry
// point against the definitional brute-force reference, under both null
// semantics and at two thread counts — so the parallel preprocessing,
// sampling, and validation paths are all exercised against the oracle.
// The committed corpus under testdata/fuzz covers nulls, constant columns,
// and unique columns.
func FuzzDiscoverDifferential(f *testing.F) {
	// Mixed shape with nulls (bytes ≡ 6 mod 7 become NULL).
	f.Add([]byte{3, 8, 0, 1, 2, 6, 1, 13, 2, 1, 0, 255, 20, 4})
	// Constant column: two columns, four rows, column A always 'a'.
	f.Add([]byte{1, 4, 0, 0, 0, 1, 0, 2, 0, 3})
	// Unique column: four rows with four distinct values in column A.
	f.Add([]byte{1, 4, 0, 7, 1, 7, 2, 7, 3, 7})
	// Degenerate shapes: no rows, single cell.
	f.Add([]byte{5, 0})
	f.Add([]byte{0, 1, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		rel := fuzzRelation(data)
		if rel == nil {
			return
		}
		for _, ns := range []hyfd.NullSemantics{hyfd.NullEqualsNull, hyfd.NullNotEqualsNull} {
			want := fd.BruteForce(rel, ns)
			for _, threads := range []int{1, 3} {
				res, err := hyfd.Run(context.Background(), hyfd.Request{Relation: rel, Options: hyfd.Options{NullSemantics: ns, Threads: threads}})
				if err != nil {
					t.Fatalf("ns=%v threads=%d: %v", ns, threads, err)
				}
				if !res.Set.Equal(want) {
					t.Fatalf("ns=%v threads=%d rows=%d cols=%d:\nmissing: %v\nextra: %v",
						ns, threads, rel.NumRows(), rel.NumCols(),
						want.Diff(res.Set), res.Set.Diff(want))
				}
			}
		}
	})
}

// fuzzDelta shapes an update batch from the fuzz bytes left over after the
// base relation's cells: one byte each for the delete and insert counts, then
// delete row picks (distinct indices into the base, so the batch never asks
// for more copies of a value than the snapshot holds), then insert cells from
// the same five-symbol alphabet as fuzzRelation. Missing bytes read as zero.
func fuzzDelta(rel *hyfd.Relation, data []byte) hyfd.Delta {
	var d hyfd.Delta
	if len(data) == 0 {
		return d
	}
	nDel := int(data[0]) % 4
	nIns := 0
	if len(data) > 1 {
		nIns = int(data[1]) % 5
	}
	if len(data) > 2 {
		data = data[2:]
	} else {
		data = nil
	}
	used := make(map[int]bool, nDel)
	for i := 0; i < nDel && rel.NumRows() > 0; i++ {
		var b byte
		if i < len(data) {
			b = data[i]
		}
		idx := int(b) % rel.NumRows()
		if used[idx] {
			continue
		}
		used[idx] = true
		d.Deletes = append(d.Deletes, rel.Rows[idx])
	}
	if nDel <= len(data) {
		data = data[nDel:]
	} else {
		data = nil
	}
	cell := 0
	for i := 0; i < nIns; i++ {
		row := make([]string, rel.NumCols())
		for j := range row {
			var b byte
			if cell < len(data) {
				b = data[cell]
			}
			cell++
			if b%7 == 6 {
				row[j] = hyfd.Null
			} else {
				row[j] = string(rune('a' + b%4))
			}
		}
		d.Inserts = append(d.Inserts, row)
	}
	return d
}

// applyDeltaRows mirrors Dataset.Apply's documented row semantics on plain
// relations: each delete removes the earliest not-yet-matched row with the
// same value, then inserts append in order. The result is the content the
// delta snapshot must be equivalent to.
func applyDeltaRows(rel *hyfd.Relation, delta hyfd.Delta) *hyfd.Relation {
	removed := make([]bool, rel.NumRows())
	for _, del := range delta.Deletes {
	match:
		for i, row := range rel.Rows {
			if removed[i] || len(row) != len(del) {
				continue
			}
			for j := range row {
				if row[j] != del[j] {
					continue match
				}
			}
			removed[i] = true
			break
		}
	}
	out := hyfd.NewRelation(rel.Name, rel.Columns)
	for i, row := range rel.Rows {
		if !removed[i] {
			out.AppendRow(row)
		}
	}
	for _, row := range delta.Inserts {
		out.AppendRow(row)
	}
	return out
}

// FuzzIncrementalDifferential differentially fuzzes incremental maintenance
// against a cold full re-run: the base relation and an update batch are both
// shaped from the fuzz bytes, the batch is applied through ModeIncremental,
// and the maintained cover must be byte-identical (same canonical String) to
// discovering the delta'd content from scratch — under both null semantics
// and at two thread counts. The committed corpus under testdata/fuzz covers
// mixed insert+delete batches, insert-only and delete-only batches, deletes
// of duplicated rows, and the empty delta.
func FuzzIncrementalDifferential(f *testing.F) {
	// Mixed batch: 3×6 base with nulls, 2 deletes + 2 inserts.
	f.Add([]byte{3, 6, 0, 1, 2, 6, 1, 13, 2, 1, 0, 255, 20, 4, 0, 0, 1, 1, 2, 2, 2, 2, 0, 3, 5, 8, 1, 6, 0, 2})
	// Insert-only batch on a 2×4 base.
	f.Add([]byte{1, 4, 0, 1, 2, 3, 0, 0, 0, 2, 4, 9, 6, 1})
	// Delete-only batch on a 2×5 base.
	f.Add([]byte{1, 5, 0, 4, 0, 4, 0, 1, 2, 8, 2, 0, 1, 3})
	// Deleting a duplicated row: rows 0 and 1 of column A share the value.
	f.Add([]byte{0, 4, 0, 0, 0, 1, 2, 0, 0, 1})
	// Empty delta: no bytes left after the base cells.
	f.Add([]byte{2, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		rel := fuzzRelation(data)
		if rel == nil {
			return
		}
		cols, rows := rel.NumCols(), rel.NumRows()
		rest := data[2:]
		if len(rest) > rows*cols {
			rest = rest[rows*cols:]
		} else {
			rest = nil
		}
		delta := fuzzDelta(rel, rest)
		final := applyDeltaRows(rel, delta)
		ctx := context.Background()
		for _, ns := range []hyfd.NullSemantics{hyfd.NullEqualsNull, hyfd.NullNotEqualsNull} {
			base, err := hyfd.Run(context.Background(), hyfd.Request{Relation: rel, Options: hyfd.Options{NullSemantics: ns, Threads: 1}})
			if err != nil {
				t.Fatalf("ns=%v: base discover: %v", ns, err)
			}
			cold, err := hyfd.Run(context.Background(), hyfd.Request{Relation: final, Options: hyfd.Options{NullSemantics: ns, Threads: 1}})
			if err != nil {
				t.Fatalf("ns=%v: cold discover: %v", ns, err)
			}
			for _, threads := range []int{1, 4} {
				ds, err := hyfd.Prepare(ctx, rel, hyfd.PrepareOptions{NullSemantics: ns, Threads: threads})
				if err != nil {
					t.Fatalf("ns=%v threads=%d: prepare: %v", ns, threads, err)
				}
				res, err := hyfd.Run(ctx, hyfd.Request{
					Dataset: ds,
					Mode:    hyfd.ModeIncremental,
					Delta:   &delta,
					Base:    base.Set,
					Options: hyfd.Options{NullSemantics: ns, Threads: threads},
				})
				if err != nil {
					t.Fatalf("ns=%v threads=%d: incremental: %v", ns, threads, err)
				}
				if res.Set.String() != cold.Set.String() {
					t.Fatalf("ns=%v threads=%d base=%dx%d +%d -%d: maintained cover diverges from cold re-run:\nmissing: %v\nextra: %v",
						ns, threads, rows, cols, len(delta.Inserts), len(delta.Deletes),
						cold.Set.Diff(res.Set), res.Set.Diff(cold.Set))
				}
			}
		}
	})
}

// FuzzTopKDifferential differentially fuzzes ranked top-k discovery against
// its offline oracle: the early-terminated engine output must equal the
// complete brute-force cover rescored and cut with rank.Rank — exact
// equality including rank order and scores, under both null semantics, at
// two thread counts, and for several k (0 ranks the whole cover). The
// committed corpus under testdata/fuzz seeds score ties (constant columns),
// nulls, and unique columns.
func FuzzTopKDifferential(f *testing.F) {
	// Mixed shape with nulls (bytes ≡ 6 mod 7 become NULL).
	f.Add([]byte{3, 8, 0, 1, 2, 6, 1, 13, 2, 1, 0, 255, 20, 4})
	// Two constant columns: maximal tied scores exercise the strict cut.
	f.Add([]byte{2, 5, 0, 4, 0, 4, 0, 4, 0, 4, 0, 4})
	// Unique column beside a correlated pair.
	f.Add([]byte{3, 6, 7, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 8, 0, 0, 9, 1, 1})
	// Degenerate shapes: no rows, single cell.
	f.Add([]byte{5, 0})
	f.Add([]byte{0, 1, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		rel := fuzzRelation(data)
		if rel == nil {
			return
		}
		ctx := context.Background()
		for _, ns := range []hyfd.NullSemantics{hyfd.NullEqualsNull, hyfd.NullNotEqualsNull} {
			// The oracle scorer reads the same prepared PLIs the engine uses,
			// so scores compare bitwise.
			ds, err := hyfd.Prepare(ctx, rel, hyfd.PrepareOptions{NullSemantics: ns, Threads: 1})
			if err != nil {
				t.Fatalf("ns=%v: prepare: %v", ns, err)
			}
			scorer := rank.NewScorer(ds.Index())
			cover := fd.BruteForce(rel, ns)
			for _, k := range []int{1, 3, 0} {
				want := rank.Rank(cover.All(), scorer, k, 0)
				for _, threads := range []int{1, 4} {
					res, err := hyfd.Run(ctx, hyfd.Request{
						Relation: rel,
						Mode:     hyfd.ModeRanked,
						TopK:     k,
						Options:  hyfd.Options{NullSemantics: ns, Threads: threads},
					})
					if err != nil {
						t.Fatalf("ns=%v k=%d threads=%d: %v", ns, k, threads, err)
					}
					if len(res.Ranked) != len(want) {
						t.Fatalf("ns=%v k=%d threads=%d rows=%d cols=%d: got %d ranked, oracle has %d\ngot: %v\nwant: %v",
							ns, k, threads, rel.NumRows(), rel.NumCols(),
							len(res.Ranked), len(want), res.Ranked, want)
					}
					for i, g := range res.Ranked {
						w := want[i]
						if g.Rank != w.Rank || g.Score != w.Score || g.FD.Rhs != w.FD.Rhs || !g.FD.Lhs.Equal(w.FD.Lhs) {
							t.Fatalf("ns=%v k=%d threads=%d: rank %d differs:\ngot:  %+v\nwant: %+v",
								ns, k, threads, i+1, g, w)
						}
					}
				}
			}
		}
	})
}
