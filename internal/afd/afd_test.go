package afd

import (
	"context"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"

	"hyfd/internal/bitset"
	"hyfd/internal/dataset"
	"hyfd/internal/fd"
	"hyfd/internal/pli"
	"hyfd/internal/relation"
)

func zipCity(dirtyRows int) *relation.Relation {
	rel := relation.New("addr", []string{"Zip", "City"})
	for i := 0; i < 20; i++ {
		rel.AppendRow([]string{"14482", "Potsdam"})
	}
	for i := 0; i < 20; i++ {
		rel.AppendRow([]string{"10115", "Berlin"})
	}
	for i := 0; i < dirtyRows; i++ {
		rel.AppendRow([]string{"14482", "Berlin"}) // violations
	}
	return rel
}

func TestG3(t *testing.T) {
	rel := zipCity(4) // 44 rows, 4 dirty
	ix := pli.NewIndex(rel, relation.NullEqualsNull)
	cache := pli.NewCache(ix.Plis, ix.NumRows)
	g3 := G3(ix, cache, bitset.FromIndices(2, 0), 1)
	want := 4.0 / 44.0
	if g3 < want-1e-9 || g3 > want+1e-9 {
		t.Fatalf("g3 = %v, want %v", g3, want)
	}
	// Exact FD has zero error: City -> Zip is violated too (Berlin maps to
	// two zips), so check a trivial-ish exact case instead.
	clean := zipCity(0)
	ix = pli.NewIndex(clean, relation.NullEqualsNull)
	cache = pli.NewCache(ix.Plis, ix.NumRows)
	if g := G3(ix, cache, bitset.FromIndices(2, 0), 1); g != 0 {
		t.Fatalf("g3 of exact FD = %v", g)
	}
	// ∅ → City on the clean data: best constant covers 20 of 40 rows.
	if g := G3(ix, cache, bitset.New(2), 1); g != 0.5 {
		t.Fatalf("g3(∅→City) = %v, want 0.5", g)
	}
}

// naiveG3 recomputes g3 by grouping raw rows.
func naiveG3(rel *relation.Relation, lhs bitset.Set, rhs int) float64 {
	if rel.NumRows() == 0 {
		return 0
	}
	groups := make(map[string]map[string]int)
	attrs := lhs.Indices()
	for _, row := range rel.Rows {
		key := ""
		for _, a := range attrs {
			key += row[a] + "\x01"
		}
		if groups[key] == nil {
			groups[key] = make(map[string]int)
		}
		groups[key][row[rhs]]++
	}
	keep := 0
	for _, g := range groups {
		best := 0
		for _, c := range g {
			if c > best {
				best = c
			}
		}
		keep += best
	}
	return float64(rel.NumRows()-keep) / float64(rel.NumRows())
}

func TestQuickG3MatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cols := 2 + r.Intn(4)
		rows := 1 + r.Intn(50)
		names := make([]string, cols)
		for i := range names {
			names[i] = "c" + strconv.Itoa(i)
		}
		rel := relation.New("rnd", names)
		for i := 0; i < rows; i++ {
			row := make([]string, cols)
			for j := range row {
				row[j] = strconv.Itoa(r.Intn(4))
			}
			rel.AppendRow(row)
		}
		ix := pli.NewIndex(rel, relation.NullEqualsNull)
		cache := pli.NewCache(ix.Plis, ix.NumRows)
		for trial := 0; trial < 8; trial++ {
			lhs := bitset.New(cols)
			for a := 0; a < cols; a++ {
				if r.Intn(3) == 0 {
					lhs.Set(a)
				}
			}
			rhs := r.Intn(cols)
			if lhs.Test(rhs) {
				continue
			}
			got := G3(ix, cache, lhs, rhs)
			want := naiveG3(rel, lhs, rhs)
			if got < want-1e-9 || got > want+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestDiscoverZeroErrorEqualsExact(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		cols := 2 + r.Intn(3)
		rel := relation.New("rnd", make([]string, cols))
		for i := range rel.Columns {
			rel.Columns[i] = "c" + strconv.Itoa(i)
		}
		for i := 0; i < 20+r.Intn(30); i++ {
			row := make([]string, cols)
			for j := range row {
				row[j] = strconv.Itoa(r.Intn(3))
			}
			rel.AppendRow(row)
		}
		afds, err := discover(rel, Options{MaxError: 0})
		if err != nil {
			t.Fatal(err)
		}
		want := fd.BruteForce(rel, relation.NullEqualsNull)
		got := fd.NewSet(cols)
		for _, a := range afds {
			if a.Error != 0 {
				t.Fatalf("zero-threshold discovery returned error %v", a.Error)
			}
			got.Add(fd.FD{Lhs: a.Lhs, Rhs: a.Rhs})
		}
		if !got.Equal(want) {
			t.Fatalf("trial %d: ε=0 AFDs differ from exact FDs:\nmissing: %v\nextra: %v",
				trial, want.Diff(got), got.Diff(want))
		}
	}
}

func TestDiscoverTolerantThreshold(t *testing.T) {
	rel := zipCity(4) // Zip→City violated by 4/44 ≈ 9 %
	exact, err := discover(rel, Options{MaxError: 0})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range exact {
		if a.Lhs.Equal(bitset.FromIndices(2, 0)) && a.Rhs == 1 {
			t.Fatal("Zip→City should not be exact on dirty data")
		}
	}
	loose, err := discover(rel, Options{MaxError: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range loose {
		if a.Lhs.Equal(bitset.FromIndices(2, 0)) && a.Rhs == 1 {
			found = true
			if a.Error <= 0 || a.Error > 0.1 {
				t.Fatalf("unexpected error %v", a.Error)
			}
		}
	}
	if !found {
		t.Fatalf("Zip→City not found at ε=0.1: %v", loose)
	}
}

func TestDiscoverMinimality(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	rel := relation.New("rnd", []string{"a", "b", "c", "d"})
	for i := 0; i < 60; i++ {
		rel.AppendRow([]string{
			strconv.Itoa(r.Intn(3)), strconv.Itoa(r.Intn(3)),
			strconv.Itoa(r.Intn(3)), strconv.Itoa(r.Intn(3)),
		})
	}
	afds, err := discover(rel, Options{MaxError: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	ix := pli.NewIndex(rel, relation.NullEqualsNull)
	cache := pli.NewCache(ix.Plis, ix.NumRows)
	for _, a := range afds {
		if G3(ix, cache, a.Lhs, a.Rhs) > 0.05 {
			t.Fatalf("reported AFD %v exceeds threshold", a)
		}
		a.Lhs.ForEach(func(x int) bool {
			if G3(ix, cache, a.Lhs.Without(x), a.Rhs) <= 0.05 {
				t.Fatalf("AFD %v not minimal (drop %d)", a, x)
			}
			return true
		})
	}
}

func TestDiscoverMaxLhs(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	rel := relation.New("rnd", []string{"a", "b", "c", "d", "e"})
	for i := 0; i < 40; i++ {
		row := make([]string, 5)
		for j := range row {
			row[j] = strconv.Itoa(r.Intn(2))
		}
		rel.AppendRow(row)
	}
	afds, err := discover(rel, Options{MaxError: 0, MaxLhs: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range afds {
		if a.Lhs.Cardinality() > 2 {
			t.Fatalf("AFD %v exceeds MaxLhs", a)
		}
	}
}

func TestDiscoverEdgeCases(t *testing.T) {
	if afds, err := discover(relation.New("z", nil), Options{}); err != nil || afds != nil {
		t.Fatalf("zero-column: %v %v", afds, err)
	}
	bad := relation.New("d", []string{"A", "A"})
	if _, err := discover(bad, Options{}); err == nil {
		t.Fatal("invalid relation accepted")
	}
}

// discover prepares rel under null=null semantics and runs Discover on it.
func discover(rel *relation.Relation, opts Options) ([]AFD, error) {
	ds, err := dataset.Prepare(context.Background(), rel, dataset.Options{Threads: 1})
	if err != nil {
		return nil, err
	}
	return Discover(context.Background(), ds, opts)
}
