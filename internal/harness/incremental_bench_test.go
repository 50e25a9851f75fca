package harness

import (
	"context"
	"testing"
)

func BenchmarkIncrementalNcvoter(b *testing.B) {
	spec := Spec{Algorithm: HyFDName, Dataset: "ncvoter", Rows: 2000, Threads: 1,
		DeltaRows: 20, Incremental: true, Digest: true}
	for i := 0; i < b.N; i++ {
		if res := ExecuteInProcess(context.Background(), spec); res.Err != "" {
			b.Fatal(res.Err)
		}
	}
}
