// Package algotest provides the shared conformance suite every FD
// discovery algorithm in this repository must pass: equality with the
// brute-force reference on fixed corner cases and on randomized relations,
// under both null semantics. One call in each algorithm's test file runs
// the whole battery.
package algotest

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"hyfd/internal/algorithms"
	"hyfd/internal/dataset"
	"hyfd/internal/fd"
	"hyfd/internal/relation"
)

// RandomRelation generates a random relation for conformance testing.
func RandomRelation(r *rand.Rand, rows, cols, domain int) *relation.Relation {
	names := make([]string, cols)
	for i := range names {
		names[i] = "c" + strconv.Itoa(i)
	}
	rel := relation.New("rnd", names)
	for i := 0; i < rows; i++ {
		row := make([]string, cols)
		for j := range row {
			row[j] = strconv.Itoa(r.Intn(domain))
		}
		rel.AppendRow(row)
	}
	return rel
}

// ClassRelation returns the paper's running example extended by a Room
// column.
func ClassRelation() *relation.Relation {
	rel := relation.New("class", []string{"Teacher", "Subject", "Room"})
	rel.AppendRow([]string{"Brown", "Math", "R1"})
	rel.AppendRow([]string{"Walker", "Math", "R2"})
	rel.AppendRow([]string{"Brown", "English", "R1"})
	rel.AppendRow([]string{"Miller", "English", "R3"})
	rel.AppendRow([]string{"Brown", "Math", "R1"})
	return rel
}

// Discover runs alg cold on rel: it prepares a single-threaded Dataset under
// ns first, then discovers over it.
func Discover(ctx context.Context, alg algorithms.Algorithm, rel *relation.Relation, ns relation.NullSemantics, cfg algorithms.Config) (*fd.Set, error) {
	ds, err := dataset.Prepare(ctx, rel, dataset.Options{NullSemantics: ns, Threads: 1})
	if err != nil {
		return nil, err
	}
	return alg.Discover(ctx, ds, cfg)
}

// check asserts the algorithm reproduces the brute-force result.
func check(t *testing.T, alg algorithms.Algorithm, rel *relation.Relation, ns relation.NullSemantics) {
	t.Helper()
	got, err := Discover(context.Background(), alg, rel, ns, algorithms.Config{})
	if err != nil {
		t.Fatalf("%s on %s: %v", alg.Name(), rel.Name, err)
	}
	want := fd.BruteForce(rel, ns)
	if !got.Equal(want) {
		t.Fatalf("%s on %s (%dx%d, %v):\nmissing: %v\nextra: %v",
			alg.Name(), rel.Name, rel.NumRows(), rel.NumCols(), ns,
			want.Diff(got), got.Diff(want))
	}
}

// RunConformance executes the full conformance battery against the
// algorithm. seed varies the randomized portion deterministically.
func RunConformance(t *testing.T, alg algorithms.Algorithm, seed int64) {
	t.Helper()

	t.Run("class example", func(t *testing.T) {
		check(t, alg, ClassRelation(), relation.NullEqualsNull)
	})

	t.Run("corner cases", func(t *testing.T) {
		empty := relation.New("empty", []string{"A", "B"})
		check(t, alg, empty, relation.NullEqualsNull)

		single := relation.New("single-row", []string{"A", "B", "C"})
		single.AppendRow([]string{"1", "2", "3"})
		check(t, alg, single, relation.NullEqualsNull)

		oneCol := relation.New("one-col", []string{"A"})
		oneCol.AppendRow([]string{"x"})
		oneCol.AppendRow([]string{"y"})
		check(t, alg, oneCol, relation.NullEqualsNull)

		constant := relation.New("constant", []string{"A", "B"})
		constant.AppendRow([]string{"c", "1"})
		constant.AppendRow([]string{"c", "2"})
		constant.AppendRow([]string{"c", "1"})
		check(t, alg, constant, relation.NullEqualsNull)

		dup := relation.New("duplicates", []string{"A", "B", "C"})
		for i := 0; i < 4; i++ {
			dup.AppendRow([]string{"1", "2", "3"})
			dup.AppendRow([]string{"1", "2", "4"})
			dup.AppendRow([]string{"2", "2", "4"})
		}
		check(t, alg, dup, relation.NullEqualsNull)

		key := relation.New("keyed", []string{"ID", "X", "Y"})
		for i := 0; i < 12; i++ {
			key.AppendRow([]string{strconv.Itoa(i), strconv.Itoa(i % 3), strconv.Itoa(i % 4)})
		}
		check(t, alg, key, relation.NullEqualsNull)
	})

	t.Run("null semantics", func(t *testing.T) {
		rel := relation.New("nulls", []string{"A", "B", "C"})
		rel.AppendRow([]string{relation.Null, "1", "x"})
		rel.AppendRow([]string{relation.Null, "2", "x"})
		rel.AppendRow([]string{"v", "1", "y"})
		rel.AppendRow([]string{"v", "1", relation.Null})
		rel.AppendRow([]string{"w", "1", relation.Null})
		check(t, alg, rel, relation.NullEqualsNull)
		check(t, alg, rel, relation.NullNotEqualsNull)
	})

	t.Run("randomized", func(t *testing.T) {
		r := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 40; trial++ {
			rows := 1 + r.Intn(40)
			cols := 2 + r.Intn(4)
			domain := 1 + r.Intn(4)
			rel := RandomRelation(r, rows, cols, domain)
			rel.Name = fmt.Sprintf("rnd-%d", trial)
			ns := relation.NullEqualsNull
			if trial%4 == 3 {
				// Sprinkle nulls and use ⊥≠⊥ occasionally.
				for i := range rel.Rows {
					for j := range rel.Rows[i] {
						if r.Intn(6) == 0 {
							rel.Rows[i][j] = relation.Null
						}
					}
				}
				ns = relation.NullNotEqualsNull
			}
			check(t, alg, rel, ns)
		}
	})

	t.Run("wide sparse", func(t *testing.T) {
		r := rand.New(rand.NewSource(seed + 1))
		rel := RandomRelation(r, 12, 7, 2)
		rel.Name = "wide-sparse"
		check(t, alg, rel, relation.NullEqualsNull)
	})

	t.Run("max lhs size", func(t *testing.T) {
		r := rand.New(rand.NewSource(seed + 2))
		rel := RandomRelation(r, 20, 5, 2)
		rel.Name = "bounded-lhs"
		full := fd.BruteForce(rel, relation.NullEqualsNull)
		for max := 1; max <= 3; max++ {
			got, err := Discover(context.Background(), alg, rel, relation.NullEqualsNull, algorithms.Config{MaxLhsSize: max})
			if err != nil {
				t.Fatalf("%s max=%d: %v", alg.Name(), max, err)
			}
			want := algorithms.Truncate(full, max)
			if !got.Equal(want) {
				t.Fatalf("%s max=%d:\nmissing: %v\nextra: %v",
					alg.Name(), max, want.Diff(got), got.Diff(want))
			}
		}
	})

	t.Run("canceled context", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		r := rand.New(rand.NewSource(seed + 3))
		rel := RandomRelation(r, 60, 5, 3)
		rel.Name = "canceled"
		if _, err := Discover(ctx, alg, rel, relation.NullEqualsNull, algorithms.Config{}); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", alg.Name(), err)
		}
	})

	t.Run("dataset reuse", func(t *testing.T) {
		// One Prepare, many warm runs: concurrent Discover calls over a
		// shared Dataset must reproduce the cold result bit-for-bit for
		// both null semantics. Run with -race to pin the goroutine-safety
		// half of the contract.
		r := rand.New(rand.NewSource(seed + 4))
		rel := RandomRelation(r, 30, 5, 3)
		for i := range rel.Rows {
			if r.Intn(5) == 0 {
				rel.Rows[i][r.Intn(len(rel.Rows[i]))] = relation.Null
			}
		}
		rel.Name = "warm-reuse"
		for _, ns := range []relation.NullSemantics{relation.NullEqualsNull, relation.NullNotEqualsNull} {
			cfg := algorithms.Config{}
			want, err := Discover(context.Background(), alg, rel, ns, cfg)
			if err != nil {
				t.Fatalf("%s cold (%v): %v", alg.Name(), ns, err)
			}
			ds, err := dataset.Prepare(context.Background(), rel, dataset.Options{NullSemantics: ns})
			if err != nil {
				t.Fatalf("Prepare (%v): %v", ns, err)
			}
			var wg sync.WaitGroup
			results := make([]*fd.Set, 4)
			errs := make([]error, 4)
			for g := range results {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					results[g], errs[g] = alg.Discover(context.Background(), ds, cfg)
				}(g)
			}
			wg.Wait()
			for g, err := range errs {
				if err != nil {
					t.Fatalf("%s warm run %d (%v): %v", alg.Name(), g, ns, err)
				}
				if !results[g].Equal(want) {
					t.Fatalf("%s warm run %d (%v) diverged from cold result:\nmissing: %v\nextra: %v",
						alg.Name(), g, ns, want.Diff(results[g]), results[g].Diff(want))
				}
			}
		}
	})
}
