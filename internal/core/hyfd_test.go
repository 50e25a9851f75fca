package core

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"

	"hyfd/internal/bitset"
	"hyfd/internal/fd"
	"hyfd/internal/relation"
)

func randomRelation(r *rand.Rand, rows, cols, domain int) *relation.Relation {
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

func TestDiscoverClassExample(t *testing.T) {
	rel := relation.New("class", []string{"Teacher", "Subject", "Room"})
	rel.AppendRow([]string{"Brown", "Math", "R1"})
	rel.AppendRow([]string{"Walker", "Math", "R2"})
	rel.AppendRow([]string{"Brown", "English", "R1"})
	rel.AppendRow([]string{"Miller", "English", "R3"})
	rel.AppendRow([]string{"Brown", "Math", "R1"})
	got, stats, err := discoverCold(rel, Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := fd.BruteForce(rel, relation.NullEqualsNull)
	if !got.Equal(want) {
		t.Fatalf("got:\n%s\nwant:\n%s", got, want)
	}
	if !stats.Complete || stats.FDCount != got.Size() {
		t.Fatalf("stats inconsistent: %+v", stats)
	}
}

func TestDiscoverMatchesBruteForceTable(t *testing.T) {
	r := rand.New(rand.NewSource(2016))
	cases := []struct {
		rows, cols, domain int
	}{
		{1, 3, 2}, {2, 2, 2}, {10, 3, 2}, {20, 4, 2}, {20, 4, 5},
		{50, 5, 2}, {50, 5, 3}, {100, 5, 4}, {30, 6, 2}, {60, 6, 3},
		{120, 7, 2}, {120, 7, 6}, {200, 6, 10}, {17, 5, 17},
	}
	for _, c := range cases {
		c := c
		t.Run(fmt.Sprintf("r%dc%dd%d", c.rows, c.cols, c.domain), func(t *testing.T) {
			rel := randomRelation(r, c.rows, c.cols, c.domain)
			got, _, err := discoverCold(rel, Config{})
			if err != nil {
				t.Fatal(err)
			}
			want := fd.BruteForce(rel, relation.NullEqualsNull)
			if !got.Equal(want) {
				t.Fatalf("rows=%d cols=%d dom=%d\nmissing: %v\nextra: %v",
					c.rows, c.cols, c.domain, want.Diff(got), got.Diff(want))
			}
		})
	}
}

func TestDiscoverEdgeCases(t *testing.T) {
	t.Run("empty relation", func(t *testing.T) {
		rel := relation.New("e", []string{"A", "B"})
		got, stats, err := discoverCold(rel, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Size() != 2 { // ∅→A, ∅→B hold vacuously
			t.Fatalf("FDs on empty relation = %d:\n%s", got.Size(), got)
		}
		if stats.Rows != 0 {
			t.Fatalf("stats.Rows = %d", stats.Rows)
		}
	})
	t.Run("zero columns", func(t *testing.T) {
		rel := relation.New("z", nil)
		got, _, err := discoverCold(rel, Config{})
		if err != nil || got.Size() != 0 {
			t.Fatalf("got %v, err %v", got, err)
		}
	})
	t.Run("single column unique", func(t *testing.T) {
		rel := relation.New("s", []string{"A"})
		rel.AppendRow([]string{"x"})
		rel.AppendRow([]string{"y"})
		got, _, err := discoverCold(rel, Config{})
		if err != nil || got.Size() != 0 {
			t.Fatalf("got %v, err %v", got, err)
		}
	})
	t.Run("all constant", func(t *testing.T) {
		rel := relation.New("c", []string{"A", "B"})
		rel.AppendRow([]string{"x", "y"})
		rel.AppendRow([]string{"x", "y"})
		got, _, err := discoverCold(rel, Config{})
		if err != nil {
			t.Fatal(err)
		}
		want := fd.NewSet(2)
		want.Add(fd.FD{Lhs: bitset.New(2), Rhs: 0})
		want.Add(fd.FD{Lhs: bitset.New(2), Rhs: 1})
		if !got.Equal(want) {
			t.Fatalf("got:\n%s", got)
		}
	})
	t.Run("duplicate rows", func(t *testing.T) {
		r := rand.New(rand.NewSource(5))
		rel := randomRelation(r, 20, 4, 3)
		rel.Rows = append(rel.Rows, rel.Rows[:10]...)
		got, _, err := discoverCold(rel, Config{})
		if err != nil {
			t.Fatal(err)
		}
		want := fd.BruteForce(rel, relation.NullEqualsNull)
		if !got.Equal(want) {
			t.Fatalf("missing: %v\nextra: %v", want.Diff(got), got.Diff(want))
		}
	})
	t.Run("nil relation", func(t *testing.T) {
		if _, _, err := discoverCold(nil, Config{}); err == nil {
			t.Fatal("nil relation accepted")
		}
	})
	t.Run("invalid relation", func(t *testing.T) {
		rel := relation.New("d", []string{"A", "A"})
		if _, _, err := discoverCold(rel, Config{}); err == nil {
			t.Fatal("duplicate column names accepted")
		}
	})
}

func TestDiscoverWithKeyColumn(t *testing.T) {
	// A key column makes every other attribute dependent on it.
	rel := relation.New("k", []string{"ID", "X", "Y"})
	for i := 0; i < 30; i++ {
		rel.AppendRow([]string{strconv.Itoa(i), strconv.Itoa(i % 3), strconv.Itoa(i % 2)})
	}
	got, _, err := discoverCold(rel, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Contains(fd.FD{Lhs: bitset.FromIndices(3, 0), Rhs: 1}) ||
		!got.Contains(fd.FD{Lhs: bitset.FromIndices(3, 0), Rhs: 2}) {
		t.Fatalf("key FDs missing:\n%s", got)
	}
	want := fd.BruteForce(rel, relation.NullEqualsNull)
	if !got.Equal(want) {
		t.Fatalf("missing: %v\nextra: %v", want.Diff(got), got.Diff(want))
	}
}

func TestDiscoverNullSemantics(t *testing.T) {
	rel := relation.New("n", []string{"A", "B"})
	rel.AppendRow([]string{relation.Null, "1"})
	rel.AppendRow([]string{relation.Null, "2"})
	rel.AppendRow([]string{"x", "1"})
	for _, ns := range []relation.NullSemantics{relation.NullEqualsNull, relation.NullNotEqualsNull} {
		got, _, err := discoverCold(rel, Config{NullSemantics: ns})
		if err != nil {
			t.Fatal(err)
		}
		want := fd.BruteForce(rel, ns)
		if !got.Equal(want) {
			t.Fatalf("%v: got:\n%s\nwant:\n%s", ns, got, want)
		}
	}
	// The two semantics must actually differ here: A→B only under ⊥≠⊥.
	eq, _, _ := discoverCold(rel, Config{NullSemantics: relation.NullEqualsNull})
	ne, _, _ := discoverCold(rel, Config{NullSemantics: relation.NullNotEqualsNull})
	aToB := fd.FD{Lhs: bitset.FromIndices(2, 0), Rhs: 1}
	if eq.Contains(aToB) || !ne.Contains(aToB) {
		t.Fatalf("null semantics not honored: eq=\n%s\nne=\n%s", eq, ne)
	}
}

func TestDiscoverMultiThreadedMatchesSingle(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 5; trial++ {
		rel := randomRelation(r, 80, 6, 3)
		single, _, err := discoverCold(rel, Config{Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		multi, _, err := discoverCold(rel, Config{Threads: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !single.Equal(multi) {
			t.Fatalf("trial %d: parallel result differs:\nsingle:\n%s\nmulti:\n%s",
				trial, single, multi)
		}
	}
}

func TestDiscoverThresholdInsensitivity(t *testing.T) {
	// §10.5: the result must be identical for any threshold; only runtime
	// and switch counts vary.
	r := rand.New(rand.NewSource(99))
	rel := randomRelation(r, 100, 5, 3)
	want := fd.BruteForce(rel, relation.NullEqualsNull)
	for _, th := range []float64{0.0001, 0.001, 0.01, 0.1, 0.5, 1.0} {
		got, _, err := discoverCold(rel, Config{EfficiencyThreshold: th})
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("threshold %v: missing: %v extra: %v", th, want.Diff(got), got.Diff(want))
		}
	}
}

func TestDiscoverMaxLhsSize(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	rel := randomRelation(r, 40, 6, 2)
	got, stats, err := discoverCold(rel, Config{MaxLhsSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Complete {
		t.Fatal("bounded run reported complete")
	}
	// Expected: exactly the brute-force FDs with |LHS| <= 2.
	want := fd.NewSet(rel.NumCols())
	for _, f := range fd.BruteForce(rel, relation.NullEqualsNull).All() {
		if f.Lhs.Cardinality() <= 2 {
			want.Add(f)
		}
	}
	if !got.Equal(want) {
		t.Fatalf("missing: %v\nextra: %v", want.Diff(got), got.Diff(want))
	}
}

func TestDiscoverGuardianBudget(t *testing.T) {
	// Wide and short: random binary relations with few rows carry many
	// deep minimal FDs, exactly the regime the Guardian exists for.
	r := rand.New(rand.NewSource(21))
	rel := randomRelation(r, 20, 10, 2)
	got, stats, err := discoverCold(rel, Config{MemoryBudgetBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Complete {
		t.Fatal("guardian run should report incomplete on a tiny budget")
	}
	// Result must still be sound: every reported FD minimal and valid.
	for _, f := range got.All() {
		if !fd.Holds(rel, relation.NullEqualsNull, f.Lhs, f.Rhs) {
			t.Fatalf("guardian run emitted invalid FD %v", f)
		}
		if f.Lhs.Cardinality() > stats.MaxLhs {
			t.Fatalf("FD %v exceeds final MaxLhs %d", f, stats.MaxLhs)
		}
	}
	// And complete up to the final bound.
	for _, f := range fd.BruteForce(rel, relation.NullEqualsNull).All() {
		if f.Lhs.Cardinality() <= stats.MaxLhs && !got.Contains(f) {
			t.Fatalf("FD %v within bound %d missing", f, stats.MaxLhs)
		}
	}
}

func TestDiscoverStatsTelemetry(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	// A key column guarantees FDs, so validation work must happen.
	rel := randomRelation(r, 100, 5, 3)
	for i := range rel.Rows {
		rel.Rows[i][0] = strconv.Itoa(i)
	}
	_, stats, err := discoverCold(rel, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.SamplingRounds != stats.PhaseSwitches+1 {
		t.Fatalf("rounds %d, switches %d", stats.SamplingRounds, stats.PhaseSwitches)
	}
	if stats.Comparisons <= 0 || stats.Validations <= 0 {
		t.Fatalf("telemetry empty: %+v", stats)
	}
	if stats.MaxLhs != rel.NumCols() {
		t.Fatalf("MaxLhs = %d", stats.MaxLhs)
	}
}

// TestQuickDiscoverMatchesBruteForce is the central correctness property:
// on arbitrary random relations HyFD returns exactly the brute-force
// minimal FD set.
func TestQuickDiscoverMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows := 1 + r.Intn(60)
		cols := 2 + r.Intn(5)
		domain := 1 + r.Intn(5)
		rel := randomRelation(r, rows, cols, domain)
		got, _, err := discoverCold(rel, Config{})
		if err != nil {
			return false
		}
		return got.Equal(fd.BruteForce(rel, relation.NullEqualsNull))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDiscoverNullSemantics repeats the property under ⊥≠⊥ with null
// injections.
func TestQuickDiscoverNullSemantics(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rel := randomRelation(r, 1+r.Intn(40), 2+r.Intn(4), 1+r.Intn(4))
		for i := range rel.Rows {
			for j := range rel.Rows[i] {
				if r.Intn(5) == 0 {
					rel.Rows[i][j] = relation.Null
				}
			}
		}
		ns := relation.NullNotEqualsNull
		if seed%2 == 0 {
			ns = relation.NullEqualsNull
		}
		got, _, err := discoverCold(rel, Config{NullSemantics: ns})
		if err != nil {
			return false
		}
		return got.Equal(fd.BruteForce(rel, ns))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestDiscoverAblationsPreserveResult: every ablation switch changes only
// efficiency, never the discovered FD set.
func TestDiscoverAblationsPreserveResult(t *testing.T) {
	r := rand.New(rand.NewSource(55))
	for trial := 0; trial < 6; trial++ {
		rel := randomRelation(r, 60, 5, 3)
		want, _, err := discoverCold(rel, Config{})
		if err != nil {
			t.Fatal(err)
		}
		for name, cfg := range map[string]Config{
			"unfocused":    {UnfocusedSampling: true},
			"nosuggest":    {NoSuggestions: true},
			"intersection": {IntersectionValidation: true},
			"all":          {UnfocusedSampling: true, NoSuggestions: true, IntersectionValidation: true},
		} {
			got, _, err := discoverCold(rel, cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !got.Equal(want) {
				t.Fatalf("trial %d ablation %s changed the result:\nmissing: %v\nextra: %v",
					trial, name, want.Diff(got), got.Diff(want))
			}
		}
	}
}

// discoverCold runs a cold full-cover Discover over rel.
func discoverCold(rel *relation.Relation, cfg Config) (*fd.Set, *Stats, error) {
	res, err := Discover(context.Background(), Input{Relation: rel}, cfg, nil)
	if err != nil {
		return nil, nil, err
	}
	return res.FDs, res.Stats, nil
}
