// Command bench regenerates the tables and figures of the HyFD paper's
// evaluation section (§10) against the synthetic dataset analogs. Each
// measurement runs in a subprocess so per-run time limits (TL) and memory
// limits (ML) are enforced the way the paper enforces them, and peak RSS
// is measured from outside the measured process.
//
// Usage:
//
//	bench -exp all
//	bench -exp fig6,table1 -timeout 60s -memlimit-mb 4096
//	bench -exp table1 -table1-rows 16000
//	bench -exp fig8 -inprocess
//
// Besides the rendered tables, every experiment is archived as a
// machine-readable BENCH_<id>.json artifact (environment, per-job Stats,
// and metrics snapshots for HyFD runs) in -json-dir; -json-dir "" disables
// the artifacts. EXPERIMENTS.md documents the artifact schema and how to
// compare artifacts across commits.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"hyfd/internal/harness"
)

func main() {
	var (
		worker     = flag.Bool("worker", false, "internal: run one job read from argv and emit JSON")
		exp        = flag.String("exp", "all", "experiments to run: all or comma list of fig6,fig7,table1,table2,table3,fig8,prep,dataset_reuse,ranked,incremental,serving (serving is not part of all)")
		timeout    = flag.Duration("timeout", 60*time.Second, "per-run time limit (TL)")
		memLimitMB = flag.Int("memlimit-mb", 8192, "per-run memory limit in MB (ML)")
		inprocess  = flag.Bool("inprocess", false, "run jobs in-process (TL enforced via context deadlines, no ML enforcement; useful without exec permissions)")
		jsonDir    = flag.String("json-dir", ".", "directory for BENCH_<exp>.json artifacts (empty = don't write)")
		metered    = flag.Bool("metrics", true, "embed metrics snapshots of HyFD runs in the artifacts")

		fig6Rows   = flag.Int("fig6-max-rows", 0, "override Fig 6 max rows")
		fig7Cols   = flag.Int("fig7-max-cols", 0, "override Fig 7 max cols")
		table1Rows = flag.Int("table1-rows", 0, "override Table 1 row cap")
		table2Rows = flag.Int("table2-rows", 0, "override Table 2 row cap")
		table3Rows = flag.Int("table3-rows", 0, "override Table 3 row cap")
		fig8Rows   = flag.Int("fig8-rows", 0, "override Fig 8 sample size")
		threads    = flag.Int("threads", 0, "override Table 2 worker count")

		servingRequests = flag.Int("serving-requests", 0, "override the serving sweep's per-level trace length")
		servingLoads    = flag.String("serving-loads", "", "override the serving sweep's offered-load levels (comma-separated req/s)")
		servingWorkers  = flag.Int("serving-workers", 0, "override the serving sweep's worker count")
		servingQueue    = flag.Int("serving-queue", 0, "override the serving sweep's queue depth")
	)
	flag.Parse()

	if *worker {
		runWorker(flag.Arg(0))
		return
	}

	opts := harness.DefaultOptions()
	applyIf := func(dst *int, v int) {
		if v > 0 {
			*dst = v
		}
	}
	applyIf(&opts.Fig6MaxRows, *fig6Rows)
	applyIf(&opts.Fig7MaxCols, *fig7Cols)
	applyIf(&opts.Table1Rows, *table1Rows)
	applyIf(&opts.Table2Rows, *table2Rows)
	applyIf(&opts.Table3Rows, *table3Rows)
	applyIf(&opts.Fig8Rows, *fig8Rows)
	applyIf(&opts.Threads, *threads)

	var ids []string
	if *exp == "all" {
		ids = []string{"fig6", "fig7", "table1", "table2", "table3", "fig8", "prep", "dataset_reuse", "ranked", "incremental"}
	} else {
		ids = strings.Split(*exp, ",")
	}

	driver := &driver{
		timeout:  *timeout,
		memLimit: uint64(*memLimitMB) << 20,
		inProc:   *inprocess,
	}
	for _, id := range ids {
		if strings.TrimSpace(id) == "serving" {
			runServing(*servingRequests, *servingLoads, *servingWorkers, *servingQueue, *jsonDir)
			continue
		}
		e, err := harness.ByID(strings.TrimSpace(id), opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		fmt.Printf("\n=== %s ===\n%s\n\n", e.ID, e.Title)
		if *metered {
			for i := range e.Jobs {
				if e.Jobs[i].Algorithm == harness.HyFDName {
					e.Jobs[i].Metrics = true
				}
			}
		}
		results := driver.runAll(e.Jobs)
		e.Render(os.Stdout, results)
		if *jsonDir != "" {
			path, err := harness.NewArtifact(e, results).WriteFile(*jsonDir)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
			fmt.Printf("\nartifact: %s\n", path)
		}
	}
}

// runServing executes the serving-capacity sweep: an in-process hyfdd server
// (the production mux and worker pool behind a local listener) replayed with
// deterministic synthetic traces at each offered load level.
func runServing(requests int, loads string, workers, queueDepth int, jsonDir string) {
	opts := harness.DefaultServingOptions()
	if requests > 0 {
		opts.Requests = requests
	}
	if workers > 0 {
		opts.Workers = workers
	}
	if queueDepth > 0 {
		opts.QueueDepth = queueDepth
	}
	if loads != "" {
		opts.LoadsRPS = nil
		for _, f := range strings.Split(loads, ",") {
			var rps float64
			if _, err := fmt.Sscanf(strings.TrimSpace(f), "%g", &rps); err != nil || rps <= 0 {
				fmt.Fprintf(os.Stderr, "bench: bad -serving-loads entry %q\n", f)
				os.Exit(2)
			}
			opts.LoadsRPS = append(opts.LoadsRPS, rps)
		}
	}
	fmt.Printf("\n=== serving ===\nServing capacity — offered load vs latency, queue depth, and 429 rate\n\n")
	art, err := harness.RunServing(context.Background(), opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	harness.RenderServing(os.Stdout, art)
	if jsonDir != "" {
		path, err := art.WriteFile(jsonDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		fmt.Printf("\nartifact: %s\n", path)
	}
}

// runWorker executes one job in this process and writes the result JSON to
// stdout (the parent enforces TL/ML from the outside).
func runWorker(specJSON string) {
	var spec harness.Spec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		fmt.Fprintln(os.Stderr, "bench worker:", err)
		os.Exit(2)
	}
	res := harness.ExecuteInProcess(context.Background(), spec)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench worker:", err)
		os.Exit(2)
	}
	fmt.Println(string(out))
}
