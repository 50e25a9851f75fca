package hyfd_test

import (
	"context"
	"fmt"
	"log"
	"strings"

	"hyfd"
)

func ExampleRun() {
	rel, err := hyfd.ReadCSV("addresses", strings.NewReader(
		"Name,Zip,City\n"+
			"ada,14482,Potsdam\n"+
			"bob,14482,Potsdam\n"+
			"cyn,10115,Berlin\n"), hyfd.CSVOptions{HasHeader: true})
	if err != nil {
		log.Fatal(err)
	}
	result, err := hyfd.Run(context.Background(), hyfd.Request{Relation: rel})
	if err != nil {
		log.Fatal(err)
	}
	for _, f := range result.FDs {
		fmt.Println(f.Format(rel))
	}
	// Output:
	// [Name] -> Zip
	// [City] -> Zip
	// [Name] -> City
	// [Zip] -> City
}

func ExampleRun_algorithm() {
	rel := hyfd.NewRelation("r", []string{"A", "B"})
	rel.AppendRow([]string{"1", "x"})
	rel.AppendRow([]string{"2", "x"})
	result, err := hyfd.Run(context.Background(), hyfd.Request{Relation: rel, Algorithm: hyfd.AlgorithmTane})
	if err != nil {
		log.Fatal(err)
	}
	for _, f := range result.FDs {
		fmt.Println(f.Format(rel))
	}
	// Output:
	// [] -> B
}

func ExampleRun_approximate() {
	rel := hyfd.NewRelation("addr", []string{"Zip", "City"})
	for i := 0; i < 9; i++ {
		rel.AppendRow([]string{"14482", "Potsdam"})
		rel.AppendRow([]string{"10115", "Berlin"})
	}
	rel.AppendRow([]string{"14482", "Potsdm"}) // one typo
	rel.AppendRow([]string{"10115", "Brlin"})  // another
	result, err := hyfd.Run(context.Background(), hyfd.Request{Relation: rel, Mode: hyfd.ModeAFD, MaxError: 0.11})
	if err != nil {
		log.Fatal(err)
	}
	for _, a := range result.AFDs {
		if a.Lhs.Test(0) && a.Rhs == 1 {
			fmt.Printf("Zip -> City with g3 = %.2f\n", a.Error)
		}
	}
	// Output:
	// Zip -> City with g3 = 0.10
}

func ExampleRun_uccs() {
	rel := hyfd.NewRelation("orders", []string{"OrderID", "CustID"})
	rel.AppendRow([]string{"1", "7"})
	rel.AppendRow([]string{"2", "7"})
	rel.AppendRow([]string{"3", "8"})
	result, err := hyfd.Run(context.Background(), hyfd.Request{Relation: rel, Mode: hyfd.ModeUCC})
	if err != nil {
		log.Fatal(err)
	}
	for _, u := range result.UCCs {
		fmt.Println(u)
	}
	// Output:
	// {0}
}

func ExampleAlgorithms() {
	fmt.Println(strings.Join(hyfd.Algorithms(), ", "))
	// Output:
	// HyFD, Tane, Fun, FD_Mine, Dfd, Dep-Miner, FastFDs, Fdep
}

// Example_datasetReuse preprocesses a relation once and fans several warm
// discovery runs out over the shared, immutable Dataset — the pattern for
// comparing algorithms (or re-running with different options) without
// paying the PLI build more than once.
func Example_datasetReuse() {
	rel := hyfd.NewRelation("addresses", []string{"Name", "Zip", "City"})
	rel.AppendRow([]string{"ada", "14482", "Potsdam"})
	rel.AppendRow([]string{"bob", "14482", "Potsdam"})
	rel.AppendRow([]string{"cyn", "10115", "Berlin"})

	// Preprocess once: PLIs and compressed records are built here.
	ds, err := hyfd.Prepare(context.Background(), rel, hyfd.PrepareOptions{})
	if err != nil {
		log.Fatal(err)
	}
	// Fan out warm runs; each skips preprocessing and may run concurrently.
	for _, name := range []string{hyfd.AlgorithmHyFD, hyfd.AlgorithmTane} {
		res, err := hyfd.Run(context.Background(), hyfd.Request{Dataset: ds, Algorithm: name})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: %d FDs (warm=%v)\n", name, len(res.FDs), res.Stats.Warm)
	}
	// Output:
	// HyFD: 4 FDs (warm=true)
	// Tane: 4 FDs (warm=true)
}
