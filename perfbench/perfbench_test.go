package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary serve as its own delete child, as the
// perfbench binary does.
func TestMain(m *testing.M) {
	if os.Getenv(deleteChildEnv) != "" {
		if err := deleteChild(context.Background(), os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "delete child:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// declared is the part of BENCHMARK.json perfbench must agree with.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// declaredUnits maps every metric BENCHMARK.json declares for a mode to its
// unit.
func declaredUnits(d declared, trace bool) map[string]string {
	out := map[string]string{}
	if trace {
		for _, m := range d.PerLayer {
			out[m.Name] = m.Unit
		}
	} else {
		for _, m := range d.EndToEnd {
			out[m.Name] = m.Unit
		}
	}
	return out
}

func TestDeclarationsMatchCode(t *testing.T) {
	d := loadDeclared(t)
	for _, mode := range []struct {
		trace bool
		defs  []metricDef
	}{{false, endToEnd}, {true, perLayer}} {
		want := declaredUnits(d, mode.trace)
		if len(want) != len(mode.defs) {
			t.Errorf("trace=%v: BENCHMARK.json declares %d metrics, perfbench %d", mode.trace, len(want), len(mode.defs))
		}
		for _, m := range mode.defs {
			if unit, ok := want[m.name]; !ok || unit != m.unit {
				t.Errorf("trace=%v: perfbench metric %s (%s) declared as %q (present=%v)", mode.trace, m.name, m.unit, unit, ok)
			}
		}
	}
	if len(d.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, perfbench %d", len(d.Workloads), len(workloads))
	}
	for _, w := range d.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("declared workload %s has no runner", w.Name)
		}
		if w.Name == "incremental-ncvoter" {
			deadline := fmt.Sprintf("%g s", deleteDeadline.Seconds())
			if !strings.Contains(w.Why, deadline) {
				t.Errorf("incremental-ncvoter's reason does not state the %s delete deadline: %q", deadline, w.Why)
			}
		}
	}
}

// smallRun executes a scaled-down workload.
func smallRun(t *testing.T, cfg config) (*run, result) {
	t.Helper()
	cfg.small = true
	if cfg.seconds == 0 {
		cfg.seconds = 0.3
	}
	if cfg.workdir == "" {
		cfg.workdir = t.TempDir()
	}
	r, res, err := execute(context.Background(), cfg)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", cfg.workload, cfg.trace, err)
	}
	return r, res
}

// buildHyfdd builds the daemon serve-mixed drives.
func buildHyfdd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "hyfdd")
	cmd := exec.Command("go", "build", "-o", bin, "hyfd/cmd/hyfdd")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build hyfdd: %v\n%s", err, out)
	}
	return bin
}

func TestWorkloadsReportEveryMetric(t *testing.T) {
	d := loadDeclared(t)
	hyfdd := buildHyfdd(t)
	for _, w := range d.Workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.Name, trace), func(t *testing.T) {
				_, res := smallRun(t, config{workload: w.Name, seed: 7, trace: trace, hyfdd: hyfdd, deleteDeadline: time.Second})
				// Delete maintenance does not finish on ncvoter data even
				// at 1,000 rows, so every delete batch times out today.
				timeouts := 0
				if w.Name == "incremental-ncvoter" {
					timeouts = sizesFor(true).deletes
				}
				if !res.Correct || res.Attempted < 1 || res.Failed > timeouts {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := declaredUnits(d, trace)
				if len(res.Metrics) != len(want) {
					t.Errorf("reported %d metrics, declared %d", len(res.Metrics), len(want))
				}
				for name, unit := range want {
					m, ok := res.Metrics[name]
					if !ok || m.Unit != unit {
						t.Errorf("metric %s: got %+v (present=%v), want unit %s", name, m, ok, unit)
					}
					if !trace && !(m.Value > 0) {
						t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
					}
				}
			})
		}
	}
}

func TestCorruptedDigestCountsAsFailure(t *testing.T) {
	_, res := smallRun(t, config{workload: "fd-ncvoter", seed: 3, trace: true, corruptDigest: true})
	if res.Correct || res.Failed == 0 || res.Failed != res.Attempted {
		t.Errorf("correct=%v attempted=%d failed=%d, want every check failed", res.Correct, res.Attempted, res.Failed)
	}
	if got := res.Metrics["error_rate"].Value; got != 1 {
		t.Errorf("error_rate = %v, want 1", got)
	}
}

func TestForcedDeleteTimeoutCountsAsFailure(t *testing.T) {
	r, res := smallRun(t, config{workload: "incremental-ncvoter", seed: 5, trace: true, deleteDeadline: time.Nanosecond})
	deletes := sizesFor(true).deletes
	if !res.Correct || res.Failed != deletes {
		t.Errorf("correct=%v failed=%d, want correct and %d timed-out delete batches", res.Correct, res.Failed, deletes)
	}
	want := float64(deletes) / float64(res.Attempted)
	if got := res.Metrics["error_rate"].Value; got != want {
		t.Errorf("error_rate = %v, want %v", got, want)
	}
	if got := r.values["incremental.delete_batch_ms"]; !(got > 0) {
		t.Errorf("a timed-out delete batch recorded latency %v, want the time until it was stopped", got)
	}
}

// Two runs with the same arguments must agree on attempted and failed, so
// the workloads that count failures or send a request mix make a fixed
// number of operations, whatever the machine's speed.
func TestSameArgumentsAttemptTheSameOperations(t *testing.T) {
	hyfdd := buildHyfdd(t)
	for _, w := range []string{"incremental-ncvoter", "serve-mixed"} {
		var counts [2][2]int
		for i := range counts {
			_, res := smallRun(t, config{workload: w, seed: 9, hyfdd: hyfdd, deleteDeadline: time.Second})
			counts[i] = [2]int{res.Attempted, res.Failed}
		}
		if counts[0] != counts[1] {
			t.Errorf("%s: attempted/failed %v, then %v", w, counts[0], counts[1])
		}
	}
}
