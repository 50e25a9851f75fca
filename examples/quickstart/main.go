// Quickstart: discover all minimal functional dependencies of a small
// in-memory relation with the public HyFD API, and inspect the run
// telemetry the hybrid algorithm reports.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"hyfd"
)

func main() {
	// The paper's running example (§5), extended by a Room column:
	// Teacher determines Room and Room determines Teacher.
	rel := hyfd.NewRelation("class", []string{"Teacher", "Subject", "Room"})
	for _, row := range [][]string{
		{"Brown", "Math", "R1"},
		{"Walker", "Math", "R2"},
		{"Brown", "English", "R1"},
		{"Miller", "English", "R3"},
		{"Brown", "Math", "R1"},
	} {
		rel.AppendRow(row)
	}

	result, err := hyfd.Run(context.Background(), hyfd.Request{Relation: rel})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s: %d rows, %d columns\n\n", rel.Name, rel.NumRows(), rel.NumCols())
	fmt.Println("minimal functional dependencies:")
	for _, f := range result.FDs {
		fmt.Println(" ", f.Format(rel))
	}

	s := result.Stats
	fmt.Printf("\nHyFD made %d record comparisons and %d node validations\n",
		s.Comparisons, s.Validations)
	fmt.Printf("phase switches (Phase 2 -> Phase 1): %d\n", s.PhaseSwitches)

	// Querying the result set: does Teacher determine Room?
	teacherToRoom := hyfd.FD{Lhs: hyfd.NewAttrSet(3, 0), Rhs: 2}
	fmt.Printf("\nTeacher -> Room discovered: %v\n", result.Set.Contains(teacherToRoom))

	// The same discovery through one of the seven baseline algorithms —
	// every implementation returns the identical minimal FD set.
	tane, err := hyfd.Run(context.Background(), hyfd.Request{Relation: rel, Algorithm: hyfd.AlgorithmTane})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("TANE agrees with HyFD: %v\n", tane.Set.Equal(result.Set))
}
