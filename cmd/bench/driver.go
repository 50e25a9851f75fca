package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"hyfd/internal/harness"
)

// driver executes measurement jobs, either in subprocesses (with real TL
// and ML enforcement and externally-observed peak RSS) or in-process.
type driver struct {
	timeout  time.Duration
	memLimit uint64
	inProc   bool

	// skip remembers (dataset, algorithm) pairs that already hit a limit
	// during a sweep; larger configurations of the same pair are skipped
	// and reported with the same marker, exactly like the paper's stopped
	// measurement series.
	skip map[string]string // key -> "TL" | "ML"
}

func (d *driver) runAll(jobs []harness.Spec) []harness.Result {
	// The skip table is scoped to one experiment: a TL on small ncvoter in
	// Fig 6 says nothing about Table 1's configuration of the same pair.
	d.skip = make(map[string]string)
	results := make([]harness.Result, 0, len(jobs))
	for _, job := range jobs {
		r := d.runOne(job)
		results = append(results, r)
		d.progress(job, r)
	}
	return results
}

// runOne executes one job unless its (dataset, algorithm) pair already hit
// a limit in this experiment, in which case the marker is propagated — the
// paper's stopped-measurement-series convention.
func (d *driver) runOne(job harness.Spec) harness.Result {
	// The key deliberately excludes rows/cols (a limit at a smaller scale
	// implies one at a larger scale of the same pair) but includes the
	// threshold and thread parameters, which do not order runs that way.
	key := fmt.Sprintf("%s|%s|th%g|n%d", job.Dataset, job.Algorithm, job.Threshold, job.Threads)
	if marker, skipped := d.skip[key]; skipped {
		r := harness.Result{Spec: job, Switches: -1}
		if marker == "ML" {
			r.MemExceeded = true
		} else {
			r.TimedOut = true
		}
		return r
	}
	var r harness.Result
	if d.inProc {
		// The context deadline gives in-process runs a real TL: the engine's
		// cancellation checkpoints abort the run and the harness reports it
		// as timed out. ML stays unenforced in this mode.
		ctx, cancel := context.WithTimeout(context.Background(), d.timeout)
		r = harness.ExecuteInProcess(ctx, job)
		cancel()
	} else {
		r = d.runSubprocess(job)
	}
	if r.TimedOut {
		d.skip[key] = "TL"
	}
	if r.MemExceeded {
		d.skip[key] = "ML"
	}
	return r
}

func (d *driver) progress(job harness.Spec, r harness.Result) {
	status := fmt.Sprintf("%8.2fs  %d FDs", r.Seconds, r.FDs)
	switch {
	case r.TimedOut:
		status = "TL"
	case r.MemExceeded:
		status = "ML"
	case r.Err != "":
		status = "ERR " + r.Err
	}
	fmt.Fprintf(os.Stderr, "  %-10s %-20s rows=%-8d cols=%-4d th=%g thr=%d  %s\n",
		job.Algorithm, job.Dataset, job.Rows, job.Cols, job.Threshold, job.Threads, status)
}

// runSubprocess re-executes this binary with -worker, polls the child's
// RSS against the memory limit, and kills it on time or memory overrun.
func (d *driver) runSubprocess(job harness.Spec) harness.Result {
	specJSON, err := json.Marshal(job)
	if err != nil {
		return harness.Result{Spec: job, Switches: -1, Err: err.Error()}
	}
	self, err := os.Executable()
	if err != nil {
		return harness.Result{Spec: job, Switches: -1, Err: err.Error()}
	}
	cmd := exec.Command(self, "-worker", string(specJSON))
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		return harness.Result{Spec: job, Switches: -1, Err: err.Error()}
	}

	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()

	deadline := time.NewTimer(d.timeout)
	defer deadline.Stop()
	ticker := time.NewTicker(100 * time.Millisecond)
	defer ticker.Stop()

	var peakRSS uint64
	for {
		select {
		case err := <-done:
			res := harness.Result{Spec: job, Switches: -1}
			if err != nil {
				res.Err = fmt.Sprintf("worker: %v: %s", err, strings.TrimSpace(stderr.String()))
				return res
			}
			if jsonErr := json.Unmarshal(stdout.Bytes(), &res); jsonErr != nil {
				res.Err = fmt.Sprintf("worker output: %v", jsonErr)
				return res
			}
			// Prefer the externally observed RSS when it exceeds the
			// in-process heap sample.
			if peakRSS > res.PeakHeap {
				res.PeakHeap = peakRSS
			}
			return res
		case <-deadline.C:
			_ = cmd.Process.Kill()
			<-done
			return harness.Result{Spec: job, Switches: -1, TimedOut: true}
		case <-ticker.C:
			if rss, ok := readRSS(cmd.Process.Pid); ok {
				if rss > peakRSS {
					peakRSS = rss
				}
				if d.memLimit > 0 && rss > d.memLimit {
					_ = cmd.Process.Kill()
					<-done
					return harness.Result{Spec: job, Switches: -1, MemExceeded: true}
				}
			}
		}
	}
}

// readRSS reads the resident set size of a process from /proc (Linux).
func readRSS(pid int) (uint64, bool) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmRSS:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0, false
		}
		kb, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return 0, false
		}
		return kb << 10, true
	}
	return 0, false
}
