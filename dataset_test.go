package hyfd_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"hyfd"
)

// datasetRel builds a deterministic relation with enough structure (an
// exact FD, correlated and free columns) and enough nulls that the two
// null semantics yield different FD sets.
func datasetRel() *hyfd.Relation {
	rel := hyfd.NewRelation("acceptance", []string{"A", "B", "C", "D", "E"})
	for i := 0; i < 30; i++ {
		row := []string{
			fmt.Sprint(i % 5),
			fmt.Sprint(i % 3),
			fmt.Sprint((i % 5) * 10), // C is determined by A
			fmt.Sprint(i % 7),
			fmt.Sprint(i % 2),
		}
		if i%6 == 0 {
			row[3] = hyfd.Null
		}
		if i%9 == 0 {
			row[1] = hyfd.Null
		}
		rel.AppendRow(row)
	}
	return rel
}

// TestDatasetWarmMatchesCold is the Dataset layer's acceptance test: one
// Prepare followed by N concurrent warm runs — HyFD and every registered
// baseline — must be bit-for-bit identical to N cold runs, for thread
// counts 1 and 4 and both null semantics, and the warm runs must report
// Stats.Warm with a near-zero PreprocessingTime.
func TestDatasetWarmMatchesCold(t *testing.T) {
	rel := datasetRel()
	semantics := []struct {
		name string
		ns   hyfd.NullSemantics
	}{
		{"null=null", hyfd.NullEqualsNull},
		{"null!=null", hyfd.NullNotEqualsNull},
	}
	// Every algorithm in ModeFD, plus the HyFD engine's ranked cut at k=1
	// and over the complete cover (k=0).
	type input struct {
		name string
		req  hyfd.Request
	}
	var inputs []input
	for _, alg := range hyfd.Algorithms() {
		inputs = append(inputs, input{alg, hyfd.Request{Algorithm: alg}})
	}
	inputs = append(inputs,
		input{"ranked/top-1", hyfd.Request{Mode: hyfd.ModeRanked, TopK: 1}},
		input{"ranked/top-0", hyfd.Request{Mode: hyfd.ModeRanked, TopK: 0}},
	)
	// run executes one input over rel (cold) or ds (warm) and returns the
	// RankedResult events it streamed, with their wall-clock field zeroed.
	run := func(ctx context.Context, in input, rel *hyfd.Relation, ds *hyfd.Dataset, opts hyfd.Options) (*hyfd.Result, []hyfd.RankedResult, error) {
		var stream []hyfd.RankedResult
		opts.Observer = hyfd.ObserverFunc(func(e hyfd.Event) {
			if r, ok := e.(hyfd.RankedResult); ok {
				r.Duration = 0
				stream = append(stream, r)
			}
		})
		req := in.req
		req.Relation, req.Dataset, req.Options = rel, ds, opts
		res, err := hyfd.Run(ctx, req)
		return res, stream, err
	}
	for _, sem := range semantics {
		for _, threads := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/threads=%d", sem.name, threads), func(t *testing.T) {
				ctx := context.Background()

				// Cold reference runs, preprocessing from scratch each time.
				type coldRun struct {
					res    *hyfd.Result
					stream []hyfd.RankedResult
				}
				cold := make(map[string]coldRun)
				for _, in := range inputs {
					res, stream, err := run(ctx, in, rel, nil, hyfd.Options{
						NullSemantics: sem.ns,
						Threads:       threads,
					})
					if err != nil {
						t.Fatalf("%s cold: %v", in.name, err)
					}
					cold[in.name] = coldRun{res, stream}
				}

				// One Prepare, then every input warm — concurrently, and
				// twice each, so the runs genuinely overlap on the shared
				// Dataset.
				ds, err := hyfd.Prepare(ctx, rel, hyfd.PrepareOptions{
					NullSemantics: sem.ns,
					Threads:       threads,
				})
				if err != nil {
					t.Fatal(err)
				}
				var wg sync.WaitGroup
				errs := make(chan error, 2*len(inputs))
				for _, in := range inputs {
					for rep := 0; rep < 2; rep++ {
						wg.Add(1)
						go func(in input) {
							defer wg.Done()
							got, stream, err := run(ctx, in, nil, ds, hyfd.Options{Threads: threads})
							if err != nil {
								errs <- fmt.Errorf("%s warm: %w", in.name, err)
								return
							}
							want := cold[in.name]
							if in.req.Mode == hyfd.ModeRanked {
								if !reflect.DeepEqual(got.Ranked, want.res.Ranked) {
									errs <- fmt.Errorf("%s warm ranking disagrees with cold:\nwarm: %v\ncold: %v",
										in.name, got.Ranked, want.res.Ranked)
									return
								}
								if !reflect.DeepEqual(stream, want.stream) {
									errs <- fmt.Errorf("%s warm RankedResult stream disagrees with cold:\nwarm: %v\ncold: %v",
										in.name, stream, want.stream)
									return
								}
							} else if !got.Set.Equal(want.res.Set) {
								errs <- fmt.Errorf("%s warm disagrees with cold:\nmissing: %v\nextra: %v",
									in.name, want.res.Set.Diff(got.Set), got.Set.Diff(want.res.Set))
								return
							}
							if got.Stats == nil || !got.Stats.Warm {
								errs <- fmt.Errorf("%s warm run did not set Stats.Warm", in.name)
								return
							}
							if in.req.Algorithm == hyfd.AlgorithmHyFD && got.Stats.PreprocessingTime > 100*time.Millisecond {
								errs <- fmt.Errorf("warm PreprocessingTime = %v, want ~0", got.Stats.PreprocessingTime)
							}
						}(in)
					}
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					t.Error(err)
				}
			})
		}
	}
}

// TestDatasetApproximateAndUCCs pins the warm variants of the adjacent
// discovery problems to their cold counterparts on one shared Dataset.
func TestDatasetApproximateAndUCCs(t *testing.T) {
	rel := datasetRel()
	ctx := context.Background()
	ds, err := hyfd.Prepare(ctx, rel, hyfd.PrepareOptions{})
	if err != nil {
		t.Fatal(err)
	}

	coldA, err := hyfd.Run(ctx, hyfd.Request{Relation: rel, Mode: hyfd.ModeAFD, MaxError: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	warmA, err := hyfd.Run(ctx, hyfd.Request{Dataset: ds, Mode: hyfd.ModeAFD, MaxError: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(coldA.AFDs, warmA.AFDs) {
		t.Fatalf("approximate FDs diverge:\ncold: %v\nwarm: %v", coldA.AFDs, warmA.AFDs)
	}

	coldU, err := hyfd.Run(ctx, hyfd.Request{Relation: rel, Mode: hyfd.ModeUCC})
	if err != nil {
		t.Fatal(err)
	}
	warmU, err := hyfd.Run(ctx, hyfd.Request{Dataset: ds, Mode: hyfd.ModeUCC})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(coldU.UCCs, warmU.UCCs) {
		t.Fatalf("UCCs diverge:\ncold: %v\nwarm: %v", coldU.UCCs, warmU.UCCs)
	}
}

// TestDatasetErrorContract pins the error behavior of the Dataset entry
// points: nil Datasets are rejected, and the warm dispatcher reports
// unknown names exactly like the cold one.
func TestDatasetErrorContract(t *testing.T) {
	ctx := context.Background()
	rel := datasetRel()
	ds, err := hyfd.Prepare(ctx, rel, hyfd.PrepareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hyfd.Run(ctx, hyfd.Request{Dataset: ds, Algorithm: "NoSuchAlgorithm"}); !errors.Is(err, hyfd.ErrUnknownAlgorithm) {
		t.Fatalf("unknown name: err = %v, want ErrUnknownAlgorithm", err)
	}
	for _, req := range []hyfd.Request{
		{},
		{Algorithm: hyfd.AlgorithmTane},
		{Mode: hyfd.ModeAFD},
		{Mode: hyfd.ModeUCC},
	} {
		if _, err := hyfd.Run(ctx, req); err == nil {
			t.Fatalf("nil dataset accepted by %+v", req)
		}
	}
	if _, err := hyfd.Prepare(ctx, nil, hyfd.PrepareOptions{}); err == nil {
		t.Fatal("nil relation accepted by Prepare")
	}
}
