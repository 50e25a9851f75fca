// Cleansing: use discovered FDs to find errors in dirty data (§1 names
// data cleansing as a core FD use case). The workflow: discover the FDs of
// a clean reference sample, then scan a dirty dataset for record pairs
// violating them — each violation localizes an inconsistency.
//
// Run with:
//
//	go run ./examples/cleansing
package main

import (
	"context"
	"fmt"
	"log"

	"hyfd"
	"hyfd/internal/closure"
)

func main() {
	clean := addressData(false)
	dirty := addressData(true)

	// 1. Learn the rules from the clean sample.
	result, err := hyfd.Run(context.Background(), hyfd.Request{Relation: clean})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("learned %d FDs from %q, e.g.:\n", len(result.FDs), clean.Name)
	for _, f := range result.FDs {
		if f.Lhs.Cardinality() == 1 {
			fmt.Println(" ", f.Format(clean))
		}
	}

	// 2. Check the dirty dataset against every learned rule.
	fmt.Printf("\nchecking %q (%d rows):\n", dirty.Name, dirty.NumRows())
	total := 0
	for _, f := range result.FDs {
		violations := closure.Violations(dirty, hyfd.NullEqualsNull, f, 0)
		for _, v := range violations {
			total++
			fmt.Printf("  violation of %s: row %d %v vs row %d %v\n",
				f.Format(dirty), v.Row1, dirty.Rows[v.Row1], v.Row2, dirty.Rows[v.Row2])
		}
	}
	if total == 0 {
		fmt.Println("  no violations — data is consistent with the learned rules")
	} else {
		fmt.Printf("\n%d violating record pairs found — candidates for repair\n", total)
	}

	// 3. No clean sample available? Mine rules from the dirty data itself
	// with approximate FDs: a rule violated by only a few records is
	// likely a true rule plus errors.
	fmt.Println("\napproximate FDs mined from the dirty data (g3 <= 5%):")
	approx, err := hyfd.Run(context.Background(), hyfd.Request{Relation: dirty, Mode: hyfd.ModeAFD, MaxError: 0.05})
	if err != nil {
		log.Fatal(err)
	}
	for _, a := range approx.AFDs {
		if a.Error == 0 || a.Lhs.Cardinality() != 1 {
			continue // exact or composite rules: not interesting here
		}
		lhsName := ""
		a.Lhs.ForEach(func(i int) bool { lhsName = dirty.Columns[i]; return true })
		fmt.Printf("  %s -> %s holds for %.1f%% of records — the other %.1f%% are repair candidates\n",
			lhsName, dirty.Columns[a.Rhs], 100*(1-a.Error), 100*a.Error)
	}
}

// addressData builds a zip→city style dataset; with dirt=true two typos
// break the Zip→City dependency.
func addressData(dirt bool) *hyfd.Relation {
	name := "addresses-clean"
	if dirt {
		name = "addresses-dirty"
	}
	rel := hyfd.NewRelation(name, []string{"Name", "Zip", "City"})
	// A slice, not a map, so the row order — and the row numbers the
	// violation report prints — are the same on every run.
	zips := []struct{ zip, city string }{
		{"14482", "Potsdam"},
		{"10115", "Berlin"},
		{"80331", "Munich"},
		{"50667", "Cologne"},
	}
	names := []string{"ada", "bob", "cyn", "dee", "eli", "fay", "gus", "hal"}
	for i, z := range zips {
		for k := 0; k < 10; k++ {
			rel.AppendRow([]string{names[(i+k)%len(names)], z.zip, z.city})
		}
	}
	if dirt {
		// Introduce inconsistencies: one mistyped city, one swapped zip.
		rel.AppendRow([]string{"ida", "14482", "Potsdm"})
		rel.AppendRow([]string{"joe", "10115", "Potsdam"})
	}
	return rel
}
