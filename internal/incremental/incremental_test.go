package incremental

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"hyfd/internal/core"
	"hyfd/internal/dataset"
	"hyfd/internal/datasets"
	"hyfd/internal/fd"
	"hyfd/internal/relation"
	"hyfd/internal/trace"
)

func randomRel(rng *rand.Rand, rows, cols int) *relation.Relation {
	names := make([]string, cols)
	for c := range names {
		names[c] = fmt.Sprintf("c%d", c)
	}
	rel := relation.New("rand", names)
	for r := 0; r < rows; r++ {
		row := make([]string, cols)
		for c := range row {
			if rng.Intn(7) == 0 {
				row[c] = relation.Null
			} else {
				row[c] = fmt.Sprintf("v%d", rng.Intn(3))
			}
		}
		rel.AppendRow(row)
	}
	return rel
}

func randomDelta(rng *rand.Rand, ds *dataset.Dataset) dataset.Delta {
	var delta dataset.Delta
	cols := ds.NumCols()
	for i := rng.Intn(4); i > 0; i-- {
		row := make([]string, cols)
		for c := range row {
			if rng.Intn(7) == 0 {
				row[c] = relation.Null
			} else {
				row[c] = fmt.Sprintf("v%d", rng.Intn(3))
			}
		}
		delta.Inserts = append(delta.Inserts, row)
	}
	if n := ds.NumRows(); n > 4 {
		for i := rng.Intn(3); i > 0; i-- {
			r := rng.Intn(n)
			delta.Deletes = append(delta.Deletes, append(relation.Row(nil), ds.Relation().Rows[r]...))
		}
	}
	return delta
}

// dedupeDeletes drops duplicate delete rows that would over-delete (the
// random generator may pick the same row twice).
func dedupeDeletes(delta dataset.Delta) dataset.Delta {
	seen := make(map[string]bool)
	kept := delta.Deletes[:0]
	for _, row := range delta.Deletes {
		k := fmt.Sprintf("%q", row)
		if !seen[k] {
			seen[k] = true
			kept = append(kept, row)
		}
	}
	delta.Deletes = kept
	return delta
}

// TestMaintainMatchesColdDiscovery is the exactness contract: across a chain
// of random deltas, the maintained cover is byte-identical to full cold
// discovery on each snapshot — both null semantics, threads 1 and 4.
func TestMaintainMatchesColdDiscovery(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		for _, ns := range []relation.NullSemantics{relation.NullEqualsNull, relation.NullNotEqualsNull} {
			for _, threads := range []int{1, 4} {
				rng := rand.New(rand.NewSource(seed))
				rel := randomRel(rng, 6+rng.Intn(14), 2+rng.Intn(4))
				ds, err := dataset.Prepare(context.Background(), rel, dataset.Options{NullSemantics: ns, Threads: threads})
				if err != nil {
					t.Fatalf("Prepare: %v", err)
				}
				base, err := discover(ds, threads)
				if err != nil {
					t.Fatalf("base discovery: %v", err)
				}
				for step := 0; step < 4; step++ {
					delta := dedupeDeletes(randomDelta(rng, ds))
					next, err := ds.Apply(context.Background(), delta)
					if err != nil {
						t.Fatalf("Apply: %v", err)
					}
					got, stats, err := Maintain(context.Background(), next, base, Config{Threads: threads})
					if err != nil {
						t.Fatalf("Maintain: %v", err)
					}
					want, err := discover(next, threads)
					if err != nil {
						t.Fatalf("cold discovery: %v", err)
					}
					if got.String() != want.String() {
						t.Fatalf("seed=%d ns=%v threads=%d step=%d (+%d/-%d rows): maintained cover diverges\n got:\n%s\nwant:\n%s\nstats: %+v",
							seed, ns, threads, step, len(delta.Inserts), len(delta.Deletes), got.String(), want.String(), stats)
					}
					ds, base = next, got
				}
			}
		}
	}
}

// TestMaintainThreadCountInvariance pins bit-for-bit determinism across
// worker counts on one fixed scenario.
func TestMaintainThreadCountInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	rel := randomRel(rng, 30, 5)
	ds, err := dataset.Prepare(context.Background(), rel, dataset.Options{Threads: 1})
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	base, err := discover(ds, 1)
	if err != nil {
		t.Fatalf("base discovery: %v", err)
	}
	next, err := ds.Apply(context.Background(), dataset.Delta{Inserts: []relation.Row{
		{"v0", "v1", "v2", "v0", "v1"},
		{"v9", "v9", "v9", "v9", "v9"},
	}})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	var covers []string
	for _, threads := range []int{1, 2, 4, 8} {
		got, _, err := Maintain(context.Background(), next, base, Config{Threads: threads})
		if err != nil {
			t.Fatalf("Maintain(threads=%d): %v", threads, err)
		}
		covers = append(covers, got.String())
	}
	for i := 1; i < len(covers); i++ {
		if covers[i] != covers[0] {
			t.Fatalf("cover at thread count %d diverges from sequential", []int{1, 2, 4, 8}[i])
		}
	}
}

// TestMaintainEmitsEvents checks the observability contract: candidates and
// completion events fire with plausible payloads.
func TestMaintainEmitsEvents(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rel := randomRel(rng, 20, 4)
	ds, err := dataset.Prepare(context.Background(), rel, dataset.Options{Threads: 1})
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	base, err := discover(ds, 1)
	if err != nil {
		t.Fatalf("base discovery: %v", err)
	}
	next, err := ds.Apply(context.Background(), dataset.Delta{
		Inserts: []relation.Row{{"v0", "v0", "v1", "v2"}},
		Deletes: []relation.Row{append(relation.Row(nil), rel.Rows[0]...)},
	})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	var cands *trace.IncrementalCandidates
	var done *trace.IncrementalDone
	obs := trace.ObserverFunc(func(e trace.Event) {
		switch ev := e.(type) {
		case trace.IncrementalCandidates:
			cands = &ev
		case trace.IncrementalDone:
			done = &ev
		}
	})
	got, stats, err := Maintain(context.Background(), next, base, Config{Threads: 1, Observer: obs})
	if err != nil {
		t.Fatalf("Maintain: %v", err)
	}
	if cands == nil || done == nil {
		t.Fatal("expected IncrementalCandidates and IncrementalDone events")
	}
	if cands.BaseFDs != base.Size() {
		t.Errorf("event BaseFDs = %d, want %d", cands.BaseFDs, base.Size())
	}
	if done.FDs != got.Size() || done.Checks != stats.Checks {
		t.Errorf("done event %+v inconsistent with stats %+v", done, stats)
	}
}

func TestMaintainRejectsNonDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ds, err := dataset.Prepare(context.Background(), randomRel(rng, 5, 3), dataset.Options{Threads: 1})
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	base, err := discover(ds, 1)
	if err != nil {
		t.Fatalf("base discovery: %v", err)
	}
	if _, _, err := Maintain(context.Background(), ds, base, Config{}); err != ErrNotDelta {
		t.Errorf("Maintain on a root snapshot: err = %v, want ErrNotDelta", err)
	}
}

// discover returns the cover of a warm full discovery over ds.
func discover(ds *dataset.Dataset, threads int) (*fd.Set, error) {
	res, err := core.Discover(context.Background(), core.Input{Dataset: ds}, core.Config{Threads: threads}, nil)
	if err != nil {
		return nil, err
	}
	return res.FDs, nil
}

// TestMaintainDeleteHonorsCancel cancels a 2-row delete on the 4k-row
// ncvoter analog shortly after it starts. The delete phase's generalization
// descent runs for many seconds on this input, so the call must notice the
// cancellation inside the descent and return the wrapped context error
// promptly.
func TestMaintainDeleteHonorsCancel(t *testing.T) {
	d, err := datasets.ByName("ncvoter")
	if err != nil {
		t.Fatal(err)
	}
	rel := d.Generate(4000 / float64(d.Rows))
	ds, err := dataset.Prepare(context.Background(), rel, dataset.Options{Threads: 1})
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	base, err := discover(ds, 1)
	if err != nil {
		t.Fatalf("base discovery: %v", err)
	}
	next, err := ds.Apply(context.Background(), dataset.Delta{Deletes: []relation.Row{rel.Rows[0], rel.Rows[1]}})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(100*time.Millisecond, cancel)
	defer timer.Stop()
	start := time.Now()
	_, _, err = Maintain(ctx, next, base, Config{Threads: 1})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Maintain err = %v, want context.Canceled", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("Maintain returned %v after its start, want within 2s of a cancel at 100ms", elapsed)
	}
}
