// Command perfbench is the repository benchmark. It runs one named workload
// against the public hyfd API (and, for serve-mixed, the real hyfdd binary),
// checks every output against an oracle, and prints one JSON result line:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. See README.md for the workloads and metric definitions.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Parallelism of every workload: the second thread count of every
// workload and hyfdd's worker count. The benchmark refuses to run on a host
// with fewer CPUs.
const parallelism = 2

// deleteDeadline is incremental-ncvoter's per-batch deadline for delete
// batches (also stated in BENCHMARK.json's workload reason). A batch that
// has not finished by then is stopped from outside and counts as failed.
const deleteDeadline = 2 * time.Second

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	hyfdd    string // path of the hyfdd binary (serve-mixed)
	workdir  string // scratch directory for hyfdd's address file
	// small scales every input down, for the self-test.
	small bool
	// deleteDeadline overrides the package constant (self-test only).
	deleteDeadline time.Duration
	// corruptDigest flips every reference digest, so every output check
	// fails (self-test only).
	corruptDigest bool
}

// metricDef declares one reported metric.
type metricDef struct{ name, unit string }

// endToEnd are the --trace 0 metrics; every workload reports each of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_t2_p50_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the --trace 1 metrics. A layer a workload does not exercise
// reports 0.
var perLayer = []metricDef{
	{"relation.read_csv_ms", "ms"},
	{"dataset.prepare_ms", "ms"},
	{"pli.clusters", "count"},
	{"pli.cluster_size_p50", "rows"},
	{"pli.cluster_size_max", "rows"},
	{"sampler.run_ms", "ms"},
	{"sampler.run_t2_ms", "ms"},
	{"sampler.comparisons", "count"},
	{"sampler.windows", "count"},
	{"sampler.observations", "count"},
	{"sampler.yield", "ratio"},
	{"sampler.alloc_mb", "MB"},
	{"inductor.update_ms", "ms"},
	{"validator.run_ms", "ms"},
	{"validator.run_t2_ms", "ms"},
	{"validator.validations", "count"},
	{"validator.invalid_ratio", "ratio"},
	{"validator.suggestions", "count"},
	{"validator.alloc_mb", "MB"},
	{"fdtree.nodes", "count"},
	{"fdtree.bytes", "bytes"},
	{"fdtree.extract_ms", "ms"},
	{"guardian.check_ms", "ms"},
	{"core.rounds", "count"},
	{"core.phase_switches", "count"},
	{"core.residual_ms", "ms"},
	{"gc.cycles", "count"},
	{"gc.pause_ms", "ms"},
	{"alloc_mb", "MB"},
	{"dataset.apply_insert_ms", "ms"},
	{"dataset.apply_delete_ms", "ms"},
	{"dataset.shared_attrs", "count"},
	{"incremental.maintain_insert_ms", "ms"},
	{"incremental.maintain_delete_ms", "ms"},
	{"incremental.delete_batch_ms", "ms"},
	{"incremental.breakable", "count"},
	{"incremental.checks", "count"},
	{"incremental.specialized", "count"},
	{"incremental.generalized", "count"},
	{"incremental.delete_seeds", "count"},
	{"server.admit_ms", "ms"},
	{"server.queue_ms", "ms"},
	{"server.run_ms", "ms"},
	{"server.fetch_ms", "ms"},
	{"server.result_kb", "KB"},
	{"server.delta_ms", "ms"},
	{"server.polls_per_job", "count"},
	{"server.rejected", "count"},
	{"server.job_p90_ms", "ms"},
	{"server.peak_rss_mb", "MB"},
	{"rank.run_ms", "ms"},
	{"afd.run_ms", "ms"},
	{"ucc.run_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"error_rate", "ratio"},
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, *run) error{
	"fd-ncvoter":          func(ctx context.Context, r *run) error { return runFD(ctx, r, "ncvoter") },
	"fd-plista":           func(ctx context.Context, r *run) error { return runFD(ctx, r, "plista") },
	"incremental-ncvoter": runIncremental,
	"serve-mixed":         runServe,
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run accumulates one invocation's outcome.
type run struct {
	cfg       config
	attempted int
	failed    int
	wrong     int // failed operations whose output was incorrect
	values    map[string]float64
	env       map[string]any
}

func newRun(cfg config) *run {
	return &run{cfg: cfg, values: make(map[string]float64), env: make(map[string]any)}
}

// set records a metric value.
func (r *run) set(name string, v float64) { r.values[name] = v }

// check counts one operation whose output was compared with its oracle.
func (r *run) check(what, got, want string) bool {
	if r.cfg.corruptDigest {
		want = "corrupted:" + want
	}
	r.attempted++
	if got == want {
		return true
	}
	r.failed++
	r.wrong++
	fmt.Fprintf(os.Stderr, "perfbench: %s: output digest %s, want %s\n", what, got, want)
	return false
}

// pass counts one operation that completed and whose output a later check
// covers.
func (r *run) pass() { r.attempted++ }

// fail counts one operation that produced no result (an error, a non-2xx
// answer, or a timeout).
func (r *run) fail(what string, err error) {
	r.attempted++
	r.failed++
	fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", what, err)
}

// result assembles the output line for the invocation's mode.
func (r *run) result() (result, error) {
	defs := endToEnd
	if r.cfg.trace {
		defs = perLayer
		if r.attempted > 0 {
			r.set("error_rate", float64(r.failed)/float64(r.attempted))
		}
	}
	out := result{Correct: r.wrong == 0, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok && !r.cfg.trace {
			return out, fmt.Errorf("workload %s did not measure %s", r.cfg.workload, d.name)
		}
		out.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out, nil
}

// execute runs the configured workload and returns its result line.
func execute(ctx context.Context, cfg config) (*run, result, error) {
	wl, ok := workloads[cfg.workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, result{}, fmt.Errorf("unknown workload %q (known: %s)", cfg.workload, strings.Join(names, ", "))
	}
	if n := runtime.NumCPU(); parallelism > n {
		return nil, result{}, fmt.Errorf("parallelism %d exceeds nproc %d", parallelism, n)
	}
	if cfg.deleteDeadline <= 0 {
		cfg.deleteDeadline = deleteDeadline
	}
	r := newRun(cfg)
	r.env["workload"] = cfg.workload
	r.env["seed"] = cfg.seed
	r.env["trace"] = cfg.trace
	r.env["nproc"] = runtime.NumCPU()
	r.env["gomaxprocs"] = runtime.GOMAXPROCS(0)
	r.env["go_version"] = runtime.Version()
	r.env["cpu_model"] = cpuModel()
	r.env["parallelism"] = parallelism
	stealBefore, totalBefore := cpuSteal()
	if err := wl(ctx, r); err != nil {
		return r, result{}, err
	}
	if steal, total := cpuSteal(); total > totalBefore {
		// CPU time the hypervisor gave to other guests: the main source of
		// run-to-run spread on a shared host.
		r.env["steal_pct"] = 100 * float64(steal-stealBefore) / float64(total-totalBefore)
	}
	res, err := r.result()
	return r, res, err
}

func main() {
	//hyfdvet:allow ctxflow — the benchmark's entry point owns the root context
	ctx := context.Background()
	if os.Getenv(deleteChildEnv) != "" {
		if err := deleteChild(ctx, os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench delete child:", err)
			os.Exit(1)
		}
		return
	}
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "measurement time of one run")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.hyfdd, "hyfdd", "", "path of the hyfdd binary")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build", "scratch directory inside the checkout")
	flag.Parse()
	cfg.trace = trace == 1
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	r, res, err := execute(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out := bufio.NewWriter(os.Stdout)
	envLine, _ := json.Marshal(map[string]any{"env": r.env})
	fmt.Fprintln(out, string(envLine))
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Fprintln(out, string(line))
	if err := out.Flush(); err != nil {
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuSteal returns the host's cumulative steal and total CPU ticks from
// /proc/stat (zeros when unavailable).
func cpuSteal() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// peakRSSMB returns the VmHWM of the given process (0 = this process).
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid > 0 {
		path = "/proc/" + strconv.Itoa(pid) + "/status"
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in " + path)
}

// settle collects the heap and returns freed memory to the OS before a
// timed operation, so neither the previous operation's garbage nor its
// retained pages shape the next one's timing or peak RSS.
func settle() { debug.FreeOSMemory() }

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
