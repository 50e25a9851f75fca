package core

import (
	"testing"

	"hyfd/internal/fd"
	"hyfd/internal/relation"
)

// FuzzDiscoverMatchesBruteForce differentially fuzzes the full HyFD stack
// against the definitional reference. The fuzzer shapes a small relation
// from raw bytes: the first two bytes pick the dimensions, the rest fill
// cells from a small alphabet.
func FuzzDiscoverMatchesBruteForce(f *testing.F) {
	f.Add([]byte{3, 8, 0, 1, 2, 0, 1, 2, 2, 1, 0, 255})
	f.Add([]byte{2, 2, 0, 0, 0, 1})
	f.Add([]byte{5, 5})
	f.Add([]byte{1, 1, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		cols := 1 + int(data[0])%5
		rows := int(data[1]) % 24
		data = data[2:]
		names := make([]string, cols)
		for i := range names {
			names[i] = string(rune('A' + i))
		}
		rel := relation.New("fuzz", names)
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
					row[j] = relation.Null
				} else {
					row[j] = string(rune('a' + b%4))
				}
			}
			rel.AppendRow(row)
		}
		for _, ns := range []relation.NullSemantics{relation.NullEqualsNull, relation.NullNotEqualsNull} {
			got, _, err := discoverCold(rel, Config{NullSemantics: ns})
			if err != nil {
				t.Fatalf("Discover failed: %v", err)
			}
			want := fd.BruteForce(rel, ns)
			if !got.Equal(want) {
				t.Fatalf("ns=%v rows=%d cols=%d:\nmissing: %v\nextra: %v",
					ns, rows, cols, want.Diff(got), got.Diff(want))
			}
		}
	})
}
