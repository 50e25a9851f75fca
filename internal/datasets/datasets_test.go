package datasets

import (
	"context"
	"testing"

	"hyfd/internal/core"
	"hyfd/internal/pli"
	"hyfd/internal/relation"
)

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{
		Name: "d", Rows: 50, Seed: 7,
		Columns: []Column{
			{Kind: Key},
			{Kind: Categorical, Domain: 5},
			{Kind: Derived, Src: 1, Domain: 3},
		},
	}
	a, b := Generate(cfg), Generate(cfg)
	if a.NumRows() != 50 || a.NumCols() != 3 {
		t.Fatalf("dims %dx%d", a.NumRows(), a.NumCols())
	}
	for i := range a.Rows {
		for j := range a.Rows[i] {
			if a.Rows[i][j] != b.Rows[i][j] {
				t.Fatalf("nondeterministic cell (%d,%d)", i, j)
			}
		}
	}
}

func TestColumnKindsBehave(t *testing.T) {
	cfg := Config{
		Name: "kinds", Rows: 200, Seed: 3,
		Columns: []Column{
			{Kind: Key},
			{Kind: Constant},
			{Kind: Categorical, Domain: 4},
			{Kind: Derived, Src: 2, Domain: 2},           // clean FD c2 → c3
			{Kind: Hierarchy, Src: 0, Domain: 5},         // clean FD c0 → c4
			{Kind: Derived, Src: 2, Domain: 2, Noise: 1}, // fully noisy: no FD expected
		},
	}
	rel := Generate(cfg)
	if err := rel.Validate(); err != nil {
		t.Fatal(err)
	}
	plis := pli.BuildAll(rel, relation.NullEqualsNull)
	if !plis[0].IsUnique() {
		t.Fatal("key column not unique")
	}
	if !plis[1].IsConstant() {
		t.Fatal("constant column not constant")
	}
	if plis[2].NumClusters > 4 {
		t.Fatalf("categorical domain exceeded: %d", plis[2].NumClusters)
	}
	// Derived: same c2 value ⇒ same c3 value.
	seen := map[string]string{}
	for _, row := range rel.Rows {
		if prev, ok := seen[row[2]]; ok && prev != row[3] {
			t.Fatal("clean derived column violates its FD")
		}
		seen[row[2]] = row[3]
	}
}

func TestNullRate(t *testing.T) {
	cfg := Config{
		Name: "nulls", Rows: 500, Seed: 9,
		Columns: []Column{{Kind: Categorical, Domain: 4, NullRate: 0.5}},
	}
	rel := Generate(cfg)
	nulls := 0
	for _, row := range rel.Rows {
		if row[0] == relation.Null {
			nulls++
		}
	}
	if nulls < 150 || nulls > 350 {
		t.Fatalf("null count %d far from expected ~250", nulls)
	}
}

func TestFDReducedConcentratesLowLevels(t *testing.T) {
	rel := FDReduced(2000, 8, 0, 1)
	res, err := core.Discover(context.Background(), core.Input{Relation: rel}, core.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	fds := res.FDs
	if fds.Size() == 0 {
		t.Fatal("fd-reduced analog has no FDs")
	}
	// The signature property: FDs concentrate on low lattice levels
	// (level ≈ 3 at paper scale); nothing deep.
	histogram := map[int]int{}
	maxLhs := 0
	for _, f := range fds.All() {
		c := f.Lhs.Cardinality()
		histogram[c]++
		if c > maxLhs {
			maxLhs = c
		}
	}
	if maxLhs > 5 {
		t.Fatalf("fd-reduced FDs reach level %d; histogram %v", maxLhs, histogram)
	}
}

func TestCatalogDatasets(t *testing.T) {
	cat := Catalog()
	if len(cat) != 17 {
		t.Fatalf("catalog has %d datasets, want 17 (Table 1)", len(cat))
	}
	for _, d := range cat {
		// Generate at tiny scale and validate structure.
		scale := 0.05
		if d.Rows <= 1000 {
			scale = 1.0
		}
		rel := d.Generate(scale)
		if err := rel.Validate(); err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		if rel.NumCols() != d.Cols {
			t.Fatalf("%s: cols %d, want %d", d.Name, rel.NumCols(), d.Cols)
		}
		if rel.Name != d.Name {
			t.Fatalf("%s: relation named %q", d.Name, rel.Name)
		}
	}
}

func TestLargeDatasetsScaleDown(t *testing.T) {
	for _, d := range Large() {
		rel := d.Generate(0.0001)
		if err := rel.Validate(); err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		if rel.NumCols() != d.Cols {
			t.Fatalf("%s: cols %d, want %d", d.Name, rel.NumCols(), d.Cols)
		}
		if rel.NumRows() == 0 {
			t.Fatalf("%s: no rows at small scale", d.Name)
		}
	}
}

func TestByName(t *testing.T) {
	d, err := ByName("ncvoter")
	if err != nil || d.Cols != 19 {
		t.Fatalf("ByName(ncvoter) = %+v, %v", d, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown dataset accepted")
	}
	if len(Names()) != 25 {
		t.Fatalf("Names() = %d entries", len(Names()))
	}
}

// TestNCVoterAnalogHasRichFDStructure sanity-checks that the mid-size
// analogs actually produce hundreds of FDs like their originals.
func TestNCVoterAnalogHasRichFDStructure(t *testing.T) {
	d, _ := ByName("ncvoter")
	rel := d.Generate(1.0)
	res, err := core.Discover(context.Background(), core.Input{Relation: rel}, core.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	fds := res.FDs
	if fds.Size() < 100 {
		t.Fatalf("ncvoter analog has only %d FDs; analog too weak", fds.Size())
	}
}
