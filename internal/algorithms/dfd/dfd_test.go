package dfd

import (
	"context"
	"math/rand"
	"testing"

	"hyfd/internal/algorithms"
	"hyfd/internal/algorithms/algotest"
	"hyfd/internal/relation"
)

func TestConformance(t *testing.T) {
	algotest.RunConformance(t, New(1), 606)
}

// TestSeedIndependence: the random walk order must never change the result.
func TestSeedIndependence(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 8; trial++ {
		rel := algotest.RandomRelation(r, 30, 5, 3)
		want, err := algotest.Discover(context.Background(), New(0), rel, relation.NullEqualsNull, algorithms.Config{})
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 5; seed++ {
			got, err := algotest.Discover(context.Background(), New(seed), rel, relation.NullEqualsNull, algorithms.Config{})
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("trial %d seed %d: results differ:\nmissing: %v\nextra: %v",
					trial, seed, want.Diff(got), got.Diff(want))
			}
		}
	}
}
