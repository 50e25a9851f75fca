package main

import (
	"reflect"
	"testing"
)

// TestAddressDataDeterministic pins the example's row order: the violation
// report prints row numbers, so every build of the dataset must list the
// same rows in the same order.
func TestAddressDataDeterministic(t *testing.T) {
	want := addressData(true).Rows
	for i := 0; i < 20; i++ {
		if got := addressData(true).Rows; !reflect.DeepEqual(got, want) {
			t.Fatalf("build %d: rows differ:\n got %v\nwant %v", i, got, want)
		}
	}
}
