package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hyfd"
)

// serveSizes are serve-mixed's registrations, its insert batch size (1% of
// ncvoter-4k), and the most rounds a run may make, one insert batch each.
type serveSizes struct{ ncRows, plRows, insertRows, maxRounds int }

func serveSizesFor(small bool) serveSizes {
	if small {
		return serveSizes{ncRows: 500, plRows: 100, insertRows: 5, maxRounds: 1}
	}
	return serveSizes{ncRows: 4000, plRows: 1000, insertRows: 40, maxRounds: 6}
}

const (
	daemonSetups = 9                    // set-ups per run; setup_s is their median
	pollInterval = 3 * time.Millisecond // client poll period for job status
	// roundSeconds sizes a run: a round takes about roundSeconds on a
	// 2-vCPU Xeon host, and a run of s seconds makes s / roundSeconds
	// rounds, rounded up. The count is fixed by --seconds, not by the clock,
	// so two runs with the same arguments send the same requests.
	roundSeconds      = 15
	ncvoterFDPerRound = 23 // ncvoter-4k fd jobs per round, each at t=1 and t=2
)

// serveOp is one job request of the client.
type serveOp struct {
	dataset string
	mode    string
	topK    int
	maxErr  float64
	maxLhs  int
}

// ncvoterFD is the most frequent job, and the only one that also runs at
// two threads.
var ncvoterFD = serveOp{dataset: "ncvoter", mode: "fd"}

// A round's one-thread jobs come in two groups, each shuffled per round by
// the seed. The ncvoter group is ncvoterFDPerRound ncvoter-4k fd jobs and
// one ranked job: a single 4k-row fd job varies by a quarter from one run of
// it to the next, so a round holds many of them. The plista group follows:
// hyfdd keeps every finished job's result, so each plista result (the fd
// and ranked ones hold 270,782 FDs) makes every later job's collections
// dearer, and a fixed group order gives every ncvoter job the same retained
// heap in every run. UCC runs on plista, because UCC on ncvoter-4k is a
// 30-40 s bottom-up lattice walk.
var (
	ncvoterJobs = append(repeat(ncvoterFD, ncvoterFDPerRound),
		serveOp{dataset: "ncvoter", mode: "ranked", topK: 10})
	plistaJobs = []serveOp{
		{dataset: "plista", mode: "afd", maxErr: 0.01, maxLhs: 2},
		{dataset: "plista", mode: "ucc"},
		{dataset: "plista", mode: "fd"},
		{dataset: "plista", mode: "ranked", topK: 10},
	}
)

func repeat(op serveOp, n int) []serveOp {
	ops := make([]serveOp, n)
	for i := range ops {
		ops[i] = op
	}
	return ops
}

// warmUpOps run before any timing.
var warmUpOps = []serveOp{
	{dataset: "ncvoter", mode: "fd"},
	{dataset: "plista", mode: "fd"},
}

// serveRounds is how many rounds a run of the given length makes.
func serveRounds(sz serveSizes, seconds float64) int {
	n := int(math.Ceil(seconds / roundSeconds))
	return min(max(n, 1), sz.maxRounds)
}

// daemon is one running hyfdd.
type daemon struct {
	cmd  *exec.Cmd
	base string
	addr string // address file
}

// startDaemon starts hyfdd and waits until /readyz answers.
func startDaemon(cfg config, hc *http.Client, idx int) (*daemon, error) {
	if cfg.hyfdd == "" {
		return nil, errors.New("serve-mixed needs --hyfdd")
	}
	addrFile := filepath.Join(cfg.workdir, fmt.Sprintf("hyfdd-%d-%d.addr", os.Getpid(), idx))
	_ = os.Remove(addrFile) // a leftover from a crashed run; absence is fine
	cmd := exec.Command(cfg.hyfdd, "-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-workers", strconv.Itoa(parallelism), "-log-level", "error")
	cmd.Stderr = os.Stderr
	// hyfdd must not outlive the benchmark, even when it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start hyfdd: %w", err)
	}
	d := &daemon{cmd: cmd, addr: addrFile}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("hyfdd did not become ready within 30s")
		}
		if d.base == "" {
			if b, err := os.ReadFile(addrFile); err == nil && strings.Contains(string(b), ":") {
				d.base = "http://" + strings.TrimSpace(string(b))
			}
		}
		if d.base != "" {
			if resp, err := hc.Get(d.base + "/readyz"); err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return d, nil
				}
			}
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts hyfdd down gracefully and waits for it to exit.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // it may already have exited
	done := make(chan struct{})
	go func() { _ = d.cmd.Wait(); close(done) }() // exit status is not a benchmark result
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
	}
	_ = os.Remove(d.addr) // best-effort cleanup inside the work directory
}

// post sends a JSON body and returns the status and the response body.
func post(hc *http.Client, url string, body any) (int, []byte, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	resp, err := hc.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// register uploads a CSV as an inline registration and returns its version.
func register(hc *http.Client, base, name string, csv []byte) (int, error) {
	status, body, err := post(hc, base+"/v1/datasets", map[string]any{"name": name, "csv": string(csv)})
	if err != nil {
		return 0, err
	}
	if status != http.StatusCreated {
		return 0, fmt.Errorf("register %s: HTTP %d: %s", name, status, body)
	}
	var info struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(body, &info); err != nil {
		return 0, err
	}
	return info.Version, nil
}

// jobView is the part of hyfdd's JobView the benchmark reads.
type jobView struct {
	ID             string  `json:"id"`
	Status         string  `json:"status"`
	DatasetVersion int     `json:"dataset_version"`
	Error          string  `json:"error"`
	QueueMs        float64 `json:"queue_ms"`
	RunMs          float64 `json:"run_ms"`
	Result         *struct {
		FDs    []string `json:"fds"`
		AFDs   []string `json:"afds"`
		UCCs   []string `json:"uccs"`
		Ranked []struct {
			FD    string  `json:"fd"`
			Score float64 `json:"score"`
			Rank  int     `json:"rank"`
		} `json:"ranked"`
	} `json:"result"`
}

// lines renders a finished job's result the way oracleLines does.
func (v *jobView) lines() []string {
	res := v.Result
	if res == nil {
		return nil
	}
	out := append(append(append([]string(nil), res.FDs...), res.AFDs...), res.UCCs...)
	for _, it := range res.Ranked {
		out = append(out, rankedLine(it.FD, it.Score, it.Rank))
	}
	return out
}

func rankedLine(fd string, score float64, rank int) string {
	return fd + " " + strconv.FormatFloat(score, 'g', -1, 64) + " #" + strconv.Itoa(rank)
}

// jobSample is one finished job as the client saw it.
type jobSample struct {
	op                    serveOp
	threads, version      int
	latency, admit, fetch time.Duration
	queueMs, runMs        float64
	polls, resultBytes    int
	digest                string
}

// serveState is what the client of one run has collected.
type serveState struct {
	hc   *http.Client
	base string

	jobs     []jobSample
	jobMs    []float64    // latencies of every job of the rounds
	fdMs     [2][]float64 // ncvoter-4k fd job latencies at 1 and at parallelism threads
	deltaMs  []float64
	deltas   map[int]hyfd.Delta // ncvoter version -> the delta that produced it
	failures []error
	rejected int
	inserted int // position in the insert pool
}

// collect forces a garbage collection in hyfdd before a timed job, as
// settle does in process, through the heap profile endpoint (gc=1 runs
// runtime.GC before the profile is written).
func (s *serveState) collect() error {
	resp, err := s.hc.Get(s.base + "/debug/pprof/heap?gc=1")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("heap profile: HTTP %d", resp.StatusCode)
	}
	return nil
}

// runJob submits one job and polls it to completion.
func (s *serveState) runJob(op serveOp, threads int) (jobSample, error) {
	smp := jobSample{op: op, threads: threads}
	req := map[string]any{"dataset": op.dataset, "mode": op.mode, "threads": threads}
	if op.topK > 0 {
		req["top_k"] = op.topK
	}
	if op.maxErr > 0 {
		req["max_error"] = op.maxErr
	}
	if op.maxLhs > 0 {
		req["max_lhs"] = op.maxLhs
	}
	start := time.Now()
	status, body, err := post(s.hc, s.base+"/v1/jobs", req)
	smp.admit = time.Since(start)
	if err != nil {
		return smp, err
	}
	if status == http.StatusTooManyRequests {
		s.rejected++
	}
	if status != http.StatusAccepted {
		return smp, fmt.Errorf("submit %s/%s: HTTP %d: %s", op.dataset, op.mode, status, body)
	}
	var v jobView
	if err := json.Unmarshal(body, &v); err != nil {
		return smp, err
	}
	for {
		time.Sleep(pollInterval)
		t := time.Now()
		resp, err := s.hc.Get(s.base + "/v1/jobs/" + v.ID)
		if err != nil {
			return smp, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		held := time.Now()
		smp.polls++
		if err != nil {
			return smp, err
		}
		if resp.StatusCode != http.StatusOK {
			return smp, fmt.Errorf("poll %s: HTTP %d", v.ID, resp.StatusCode)
		}
		var cur jobView
		if err := json.Unmarshal(body, &cur); err != nil {
			return smp, err
		}
		switch cur.Status {
		case "queued", "running":
			continue
		case "done":
			smp.latency = held.Sub(start)
			smp.fetch = held.Sub(t)
			smp.resultBytes = len(body)
			smp.version, smp.queueMs, smp.runMs = cur.DatasetVersion, cur.QueueMs, cur.RunMs
			smp.digest = linesDigest(cur.lines())
			return smp, nil
		default:
			return smp, fmt.Errorf("job %s %s: %s", v.ID, cur.Status, cur.Error)
		}
	}
}

// runInsert posts the pool's next rows as one insert batch to the ncvoter
// registration.
func (s *serveState) runInsert(pool [][]string, sz serveSizes) error {
	delta := hyfd.Delta{Inserts: pool[s.inserted : s.inserted+sz.insertRows]}
	s.inserted += sz.insertRows
	start := time.Now()
	status, body, err := post(s.hc, s.base+"/v1/datasets/ncvoter/delta",
		map[string]any{"inserts": delta.Inserts})
	d := time.Since(start)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("delta: HTTP %d: %s", status, body)
	}
	var resp struct {
		Dataset struct {
			Version int `json:"version"`
		} `json:"dataset"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	s.deltas[resp.Dataset.Version] = delta
	s.deltaMs = append(s.deltaMs, ms(d))
	return nil
}

// job runs one job and files its outcome; each of latencies receives its
// latency.
func (s *serveState) job(op serveOp, threads int, latencies ...*[]float64) {
	if err := s.collect(); err != nil {
		s.failures = append(s.failures, err)
		return
	}
	smp, err := s.runJob(op, threads)
	if err != nil {
		s.failures = append(s.failures, err)
		return
	}
	s.jobs = append(s.jobs, smp)
	for _, l := range latencies {
		*l = append(*l, ms(smp.latency))
	}
}

// runServe is the serve-mixed workload: the real hyfdd with two workers and
// one closed-loop client. After a warm-up, each round sends a seeded
// shuffle of its jobs and then an insert batch; every ncvoter-4k fd job
// runs at one and at two threads. Every served result is checked against an in-process
// hyfd.Run on the same dataset version afterwards.
func runServe(ctx context.Context, r *run) error {
	sz := serveSizesFor(r.cfg.small)
	rounds := serveRounds(sz, r.cfg.seconds)
	ncAll, err := analog("ncvoter", sz.ncRows+sz.insertRows*sz.maxRounds, r.cfg.seed)
	if err != nil {
		return err
	}
	ncCSVAll, err := csvBytes(ncAll)
	if err != nil {
		return err
	}
	parsed, err := hyfd.ReadCSV("ncvoter", bytes.NewReader(ncCSVAll), csvOptions)
	if err != nil {
		return err
	}
	ncBase := hyfd.NewRelation("ncvoter", parsed.Columns)
	ncBase.Rows = parsed.Rows[:sz.ncRows]
	pool := parsed.Rows[sz.ncRows:]
	ncCSV, err := csvBytes(ncBase)
	if err != nil {
		return err
	}
	pl, err := analog("plista", sz.plRows, r.cfg.seed)
	if err != nil {
		return err
	}
	plCSV, err := csvBytes(pl)
	if err != nil {
		return err
	}

	// In-process twins of the registrations, for the oracle. The ncvoter
	// set-up runs last so its read/prepare split is the one recorded.
	plDS, err := setUp(ctx, r, "plista", plCSV, 1)
	if err != nil {
		return err
	}
	ncDS, err := setUp(ctx, r, "ncvoter", ncCSV, setupReps)
	if err != nil {
		return err
	}
	recordClusters(r, ncDS)

	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	defer hc.CloseIdleConnections()
	var setups []float64
	var d *daemon
	var ncVersion int
	for i := 0; i < daemonSetups; i++ {
		if d != nil {
			d.stop()
		}
		settle()
		start := time.Now()
		d, err = startDaemon(r.cfg, hc, i)
		if err != nil {
			return err
		}
		if ncVersion, err = register(hc, d.base, "ncvoter", ncCSV); err == nil {
			_, err = register(hc, d.base, "plista", plCSV)
		}
		if err != nil {
			d.stop()
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	r.set("setup_s", median(setups))

	s := &serveState{hc: hc, base: d.base, deltas: map[int]hyfd.Delta{}}
	// peak_rss_mb is hyfdd's high-water mark after a warm-up job on each
	// registration. The plista fd job, with its 270,782-FD result, is the
	// largest footprint of any job.
	for _, op := range warmUpOps {
		s.job(op, 1)
	}
	rss, err := peakRSSMB(d.cmd.Process.Pid)
	if err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(r.cfg.seed))
	pairs := 0
	for round := 0; round < rounds; round++ {
		for _, group := range [][]serveOp{ncvoterJobs, plistaJobs} {
			ops := append([]serveOp(nil), group...)
			rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
			for _, op := range ops {
				if op != ncvoterFD {
					s.job(op, 1, &s.jobMs)
					continue
				}
				// Every ncvoter-4k fd job runs at one and at two threads,
				// back to back, so both see the same server state.
				for _, threads := range pairOrder(pairs) {
					at := &s.fdMs[0]
					if threads != 1 {
						at = &s.fdMs[1]
					}
					s.job(op, threads, &s.jobMs, at)
				}
				pairs++
			}
		}
		// The insert ends the round, so the registration grows at the same
		// points of every run.
		if err := s.runInsert(pool, sz); err != nil {
			s.failures = append(s.failures, err)
		}
	}
	rssAfter, err := peakRSSMB(d.cmd.Process.Pid)
	if err != nil {
		return err
	}
	d.stop()
	d = nil

	for _, err := range s.failures {
		r.fail("serve", err)
	}
	deltas := len(s.deltaMs)
	for i := 0; i < deltas; i++ {
		r.pass() // a delta's effect is checked by every later job's oracle
	}
	if err := checkServed(ctx, r, s, ncDS, plDS, ncVersion); err != nil {
		return err
	}
	r.env["rows"] = map[string]int{"ncvoter": sz.ncRows, "plista": sz.plRows}
	r.env["cols"] = map[string]int{"ncvoter": ncBase.NumCols(), "plista": pl.NumCols()}
	r.env["rounds"], r.env["jobs"], r.env["deltas"] = rounds, len(s.jobs), deltas

	r.set("op_p50_ms", median(s.fdMs[0]))
	r.set("op_t2_p50_ms", median(s.fdMs[1]))
	// Throughput per second of busy time (from submit or post until the
	// client holds the answer), as on the other workloads; the forced
	// collections between requests are not part of it.
	busy := 0.0
	for _, x := range append(append([]float64(nil), s.jobMs...), s.deltaMs...) {
		busy += x
	}
	r.set("ops_per_s", float64(len(s.jobMs)+len(s.deltaMs))/(busy/1000))
	r.set("peak_rss_mb", rss)

	var admit, queue, run, fetch, kb, polls []float64
	byMode := map[string][]float64{}
	for _, j := range s.jobs {
		admit = append(admit, ms(j.admit))
		queue = append(queue, j.queueMs)
		run = append(run, j.runMs)
		fetch = append(fetch, ms(j.fetch))
		kb = append(kb, float64(j.resultBytes)/1024)
		polls = append(polls, float64(j.polls))
		byMode[j.op.mode] = append(byMode[j.op.mode], j.runMs)
	}
	r.set("server.admit_ms", median(admit))
	r.set("server.queue_ms", median(queue))
	r.set("server.run_ms", median(run))
	r.set("server.fetch_ms", median(fetch))
	r.set("server.result_kb", median(kb))
	r.set("server.delta_ms", median(s.deltaMs))
	r.set("server.polls_per_job", mean(polls))
	r.set("server.rejected", float64(s.rejected))
	r.set("server.job_p90_ms", quantile(s.jobMs, 0.9))
	r.set("server.peak_rss_mb", rssAfter)
	r.set("rank.run_ms", median(byMode["ranked"]))
	r.set("afd.run_ms", median(byMode["afd"]))
	r.set("ucc.run_ms", median(byMode["ucc"]))
	return nil
}

// checkServed recomputes every distinct (dataset, version, request) the
// client was served, in process, and checks each served result.
func checkServed(ctx context.Context, r *run, s *serveState, nc, pl *hyfd.Dataset, ncVersion int) error {
	versions := []int{ncVersion}
	for v := range s.deltas {
		versions = append(versions, v)
	}
	sort.Ints(versions)
	snaps := map[int]*hyfd.Dataset{ncVersion: nc}
	cur := nc
	for _, v := range versions[1:] {
		delta := s.deltas[v]
		next, err := cur.Apply(ctx, delta)
		if err != nil {
			return fmt.Errorf("replay delta for version %d: %w", v, err)
		}
		if next.Version() != v {
			return fmt.Errorf("replayed delta produced version %d, hyfdd reported %d", next.Version(), v)
		}
		snaps[v], cur = next, next
	}

	if r.cfg.trace {
		res, err := discover(ctx, nc, 1)
		if err != nil {
			return err
		}
		ls := newLayerSamples()
		for _, threads := range pairOrder(0) {
			plain, gc, l, ok := tracedDiscovery(ctx, r, nc, threads, fdDigest(res.FDs))
			if ok {
				ls.add(threads, plain, gc, l)
			}
		}
		ls.record(r)
	}

	oracle := map[string]string{}
	fds := map[string]int{}
	for _, j := range s.jobs {
		ds := pl
		if j.op.dataset == "ncvoter" {
			ds = snaps[j.version]
			if ds == nil {
				r.fail("serve", fmt.Errorf("job pinned to unknown ncvoter version %d", j.version))
				continue
			}
		}
		key := fmt.Sprintf("%s@%d %s k=%d e=%g l=%d", j.op.dataset, j.version, j.op.mode, j.op.topK, j.op.maxErr, j.op.maxLhs)
		want, ok := oracle[key]
		if !ok {
			lines, err := oracleLines(ctx, ds, j.op)
			if err != nil {
				return fmt.Errorf("oracle %s: %w", key, err)
			}
			want = linesDigest(lines)
			oracle[key] = want
			if j.op.mode == "fd" {
				fds[fmt.Sprintf("%s@%d", j.op.dataset, j.version)] = len(lines)
			}
		}
		r.check("served "+key, j.digest, want)
	}
	r.env["fds"] = fds
	return nil
}

// oracleLines runs a job's request in process and renders it the way hyfdd
// renders its JobResult.
func oracleLines(ctx context.Context, ds *hyfd.Dataset, op serveOp) ([]string, error) {
	res, err := hyfd.Run(ctx, hyfd.Request{
		Dataset: ds, Mode: hyfd.Mode(op.mode), TopK: op.topK, MaxError: op.maxErr,
		Options: hyfd.Options{Threads: 1, MaxLhsSize: op.maxLhs},
	})
	if err != nil {
		return nil, err
	}
	rel := ds.Relation()
	attrs := func(set hyfd.AttrSet) string {
		var names []string
		set.ForEach(func(a int) bool { names = append(names, rel.Columns[a]); return true })
		return "[" + strings.Join(names, ",") + "]"
	}
	var out []string
	for _, f := range res.FDs {
		out = append(out, f.Format(rel))
	}
	for _, a := range res.AFDs {
		out = append(out, fmt.Sprintf("%s -> %s (g3=%.4f)", attrs(a.Lhs), rel.Columns[a.Rhs], a.Error))
	}
	for _, u := range res.UCCs {
		out = append(out, attrs(u))
	}
	for _, k := range res.Ranked {
		out = append(out, rankedLine(k.FD.Format(rel), k.Score, k.Rank))
	}
	return out, nil
}

// mean returns the arithmetic mean of xs (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
