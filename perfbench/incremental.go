package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hyfd"
	"hyfd/internal/fd"
	"hyfd/internal/incremental"
	"hyfd/internal/pli"
)

// incrementalSizes are incremental-ncvoter's base rows, insert batch rows
// (1% of the base), insert batches available, and delete batches per run
// with their size.
type incrementalSizes struct{ base, batch, batches, deletes, deleteRows int }

func sizesFor(small bool) incrementalSizes {
	if small {
		return incrementalSizes{base: 1000, batch: 10, batches: 8, deletes: 1, deleteRows: 2}
	}
	return incrementalSizes{base: 16000, batch: 160, batches: 60, deletes: 2, deleteRows: 2}
}

// deleteAfter reports whether insert step i is followed by a delete batch:
// after steps 1, 4, 7, ..., so every run reaches all of them early.
func deleteAfter(i, done, want int) bool { return done < want && i%3 == 1 }

// insertBatchesPerSecond sizes a run: a run of s seconds maintains
// s x insertBatchesPerSecond insert batches, about what fits into s seconds
// on a 2-vCPU Xeon host alongside the delete batches. The count is fixed by
// --seconds, not by the clock, so two runs with the same arguments attempt
// the same operations and report the same attempted and failed counts.
const insertBatchesPerSecond = 2.25

// insertBatches is how many insert batches a run of the given length
// maintains: at least enough to reach every delete batch, at most the pool.
func insertBatches(sz incrementalSizes, seconds float64) int {
	n := int(seconds * insertBatchesPerSecond)
	n = max(n, 3*sz.deletes)
	return min(n, sz.batches)
}

// snapshot is one point of the maintained snapshot chain.
type snapshot struct {
	ds     *hyfd.Dataset
	cover  *hyfd.FDSet
	digest string
}

// runIncremental is the incremental-ncvoter workload: a 16,000-row ncvoter
// prefix as the base, then a chain of 160-row insert batches, each
// maintained at one and at two threads from the same snapshot, with small
// seeded delete batches run in a child process under a deadline.
func runIncremental(ctx context.Context, r *run) error {
	sz := sizesFor(r.cfg.small)
	pool, err := analog("ncvoter", sz.base+sz.batch*sz.batches, r.cfg.seed)
	if err != nil {
		return err
	}
	csv, err := csvBytes(pool)
	if err != nil {
		return err
	}
	// The whole pool goes through the CSV reader, so inserted rows carry
	// the same null representation as the base rows.
	all, err := hyfd.ReadCSV("ncvoter", bytes.NewReader(csv), csvOptions)
	if err != nil {
		return err
	}
	base := hyfd.NewRelation("ncvoter", all.Columns)
	base.Rows = all.Rows[:sz.base]
	baseCSV, err := csvBytes(base)
	if err != nil {
		return err
	}
	// Inserts are the table's next rows in order, as a stream delivers
	// them; the seed reaches them through the renamed values. Shuffling
	// them per seed would move which costly batches a run meets.
	inserts := all.Rows[sz.base:]
	rng := rand.New(rand.NewSource(r.cfg.seed)) // delete picks

	ds, err := setUp(ctx, r, "ncvoter", baseCSV, setupReps)
	if err != nil {
		return err
	}
	recordClusters(r, ds)
	ref, err := discover(ctx, ds, 1)
	if err != nil {
		return fmt.Errorf("base discovery: %w", err)
	}
	cur := snapshot{ds: ds, cover: ref.Set, digest: fdDigest(ref.FDs)}
	r.env["rows"], r.env["cols"], r.env["fds"] = ds.NumRows(), ds.NumCols(), len(ref.FDs)
	r.env["insert_batch_rows"], r.env["delete_batch_rows"] = sz.batch, sz.deleteRows
	r.env["delete_deadline_ms"] = ms(r.cfg.deleteDeadline)
	ref = nil
	if r.cfg.trace {
		s := newLayerSamples()
		for _, threads := range pairOrder(0) {
			plain, gc, l, ok := tracedDiscovery(ctx, r, ds, threads, cur.digest)
			if ok {
				s.add(threads, plain, gc, l)
			}
		}
		s.record(r)
	}

	var (
		lat          = map[int][]float64{}
		busy         time.Duration
		ops, deletes int
		deleted      = map[int]bool{}
		tr           incrementalTrace
	)
	batches := insertBatches(sz, r.cfg.seconds)
	r.env["insert_batches"] = batches
	for i := 0; i < batches; i++ {
		delta := hyfd.Delta{Inserts: inserts[i*sz.batch : (i+1)*sz.batch]}
		if r.cfg.trace {
			next, ok := tr.insert(ctx, r, cur, delta)
			if !ok {
				break
			}
			cur = next
		} else {
			var results [2]*hyfd.Result
			for k, threads := range pairOrder(i) {
				settle()
				t := time.Now()
				res, err := hyfd.Run(ctx, hyfd.Request{
					Dataset: cur.ds, Mode: hyfd.ModeIncremental, Delta: &delta, Base: cur.cover,
					Options: hyfd.Options{Threads: threads},
				})
				d := time.Since(t)
				if err != nil {
					r.fail(fmt.Sprintf("insert batch %d t=%d", i, threads), err)
					break
				}
				lat[threads] = append(lat[threads], ms(d))
				busy += d
				ops++
				results[k] = res
			}
			if results[0] == nil || results[1] == nil {
				break
			}
			d0, d1 := fdDigest(results[0].FDs), fdDigest(results[1].FDs)
			r.pass() // the first maintained cover; checked below and at the end
			if !r.check(fmt.Sprintf("insert batch %d across thread counts", i), d1, d0) {
				break
			}
			cur = snapshot{ds: results[0].Dataset, cover: results[0].Set, digest: d0}
		}

		if deleteAfter(i, deletes, sz.deletes) {
			deletes++
			picked := pickDeletes(rng, base.Rows, deleted, sz.deleteRows)
			var rows [][]string
			for _, id := range picked {
				rows = append(rows, base.Rows[id])
			}
			out, d, err := runDeleteBatch(ctx, r, cur, rows)
			busy += d
			ops++
			tr.deleteBatch = append(tr.deleteBatch, ms(d))
			if out.applyMs > 0 {
				tr.applyDelete = append(tr.applyDelete, out.applyMs)
				tr.maintainDelete = append(tr.maintainDelete, ms(d)-out.applyMs)
				tr.deleteSeeds = append(tr.deleteSeeds, float64(out.seeds))
			}
			if err != nil {
				r.fail(fmt.Sprintf("delete batch after insert batch %d", i), err)
				continue
			}
			next, ok := verifyDelete(ctx, r, cur, rows, out)
			if !ok {
				break
			}
			tr.generalized = append(tr.generalized, float64(out.generalized))
			cur = next
			for _, id := range picked {
				deleted[id] = true
			}
		}
	}
	r.env["final_rows"] = cur.ds.NumRows()

	// Correctness: the maintained cover equals cold re-discovery of the
	// final snapshot, prepared afresh from its rows.
	settle()
	fresh, err := hyfd.Prepare(ctx, cur.ds.Relation(), hyfd.PrepareOptions{})
	if err != nil {
		return fmt.Errorf("prepare final snapshot: %w", err)
	}
	cold, err := discover(ctx, fresh, 1)
	if err != nil {
		r.fail("cold re-discovery of the final snapshot", err)
	} else {
		r.check("maintained cover vs cold re-discovery", cur.digest, fdDigest(cold.FDs))
	}

	if r.cfg.trace {
		tr.record(r)
		return nil
	}
	r.set("op_p50_ms", median(lat[1]))
	r.set("op_t2_p50_ms", median(lat[parallelism]))
	r.set("ops_per_s", float64(ops)/busy.Seconds())
	rss, err := peakRSSMB(0)
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", rss)
	return nil
}

// incrementalTrace collects the traced run's per-call samples.
type incrementalTrace struct {
	applyInsert, maintainInsert, shared      []float64
	breakable, checks, specialized           []float64
	applyDelete, maintainDelete, deleteBatch []float64
	deleteSeeds, generalized                 []float64
}

// insert advances the chain by one insert batch through hyfd.Run (the
// reference) and again through separately timed Dataset.Apply and
// incremental.Maintain calls, whose cover must equal the reference.
func (tr *incrementalTrace) insert(ctx context.Context, r *run, cur snapshot, delta hyfd.Delta) (snapshot, bool) {
	ref, err := hyfd.Run(ctx, hyfd.Request{
		Dataset: cur.ds, Mode: hyfd.ModeIncremental, Delta: &delta, Base: cur.cover,
		Options: hyfd.Options{Threads: 1},
	})
	if err != nil {
		r.fail("insert batch", err)
		return cur, false
	}
	r.pass() // checked against the split calls below and at the end
	refDigest := fdDigest(ref.FDs)
	settle()
	t := time.Now()
	snap, err := cur.ds.Apply(ctx, delta)
	applied := time.Since(t)
	if err != nil {
		r.fail("Dataset.Apply insert", err)
		return cur, false
	}
	t = time.Now()
	set, st, err := incremental.Maintain(ctx, snap, cur.cover, incremental.Config{Threads: 1})
	maintained := time.Since(t)
	if err != nil {
		r.fail("incremental.Maintain insert", err)
		return cur, false
	}
	if !r.check("split Apply+Maintain vs hyfd.Run", fdDigest(set.All()), refDigest) {
		return cur, false
	}
	tr.applyInsert = append(tr.applyInsert, ms(applied))
	tr.maintainInsert = append(tr.maintainInsert, ms(maintained))
	tr.shared = append(tr.shared, float64(snap.Provenance().SharedAttrs))
	tr.breakable = append(tr.breakable, float64(st.Breakable))
	tr.checks = append(tr.checks, float64(st.Checks))
	tr.specialized = append(tr.specialized, float64(st.Specialized))
	return snapshot{ds: ref.Dataset, cover: ref.Set, digest: refDigest}, true
}

func (tr *incrementalTrace) record(r *run) {
	r.set("dataset.apply_insert_ms", median(tr.applyInsert))
	r.set("dataset.apply_delete_ms", median(tr.applyDelete))
	r.set("dataset.shared_attrs", median(tr.shared))
	r.set("incremental.maintain_insert_ms", median(tr.maintainInsert))
	r.set("incremental.maintain_delete_ms", median(tr.maintainDelete))
	r.set("incremental.delete_batch_ms", median(tr.deleteBatch))
	r.set("incremental.breakable", median(tr.breakable))
	r.set("incremental.checks", median(tr.checks))
	r.set("incremental.specialized", median(tr.specialized))
	r.set("incremental.generalized", median(tr.generalized))
	r.set("incremental.delete_seeds", median(tr.deleteSeeds))
}

// pickDeletes draws n distinct base rows that are still present.
func pickDeletes(rng *rand.Rand, rows [][]string, deleted map[int]bool, n int) []int {
	var ids []int
	for len(ids) < n {
		id := rng.Intn(len(rows))
		if deleted[id] {
			continue
		}
		dup := false
		for _, x := range ids {
			dup = dup || x == id
		}
		if !dup {
			ids = append(ids, id)
		}
	}
	return ids
}

// deleteChildEnv switches the perfbench binary into delete-child mode.
const deleteChildEnv = "PERFBENCH_DELETE_CHILD"

// deleteRequest is what the parent hands a delete child on stdin.
type deleteRequest struct {
	CSV     []byte     `json:"csv"`
	Cover   [][]int    `json:"cover"` // LHS attributes, then the RHS
	Deletes [][]string `json:"deletes"`
	// Split times Dataset.Apply and incremental.Maintain separately
	// (traced run) instead of calling hyfd.Run.
	Split bool `json:"split"`
}

// deleteOutcome is what the parent learned from a delete child.
type deleteOutcome struct {
	digest      string
	applyMs     float64
	seeds       int
	generalized int
}

// runDeleteBatch maintains the cover across one delete batch in a child
// process and stops the child at the deadline: incremental.Maintain's
// delete phase checks its context only between seeds, so a deadline inside
// the process cannot bound it. The latency runs from the child's "ready"
// (input parsed and prepared) to its answer, or to the child's exit after
// it was killed at the deadline.
func runDeleteBatch(ctx context.Context, r *run, cur snapshot, rows [][]string) (deleteOutcome, time.Duration, error) {
	var out deleteOutcome
	csv, err := csvBytes(cur.ds.Relation())
	if err != nil {
		return out, 0, err
	}
	req := deleteRequest{CSV: csv, Deletes: rows, Split: r.cfg.trace}
	for _, f := range cur.cover.All() {
		var c []int
		f.Lhs.ForEach(func(a int) bool { c = append(c, a); return true })
		req.Cover = append(req.Cover, append(c, f.Rhs))
	}
	body, err := json.Marshal(req)
	if err != nil {
		return out, 0, err
	}
	exe, err := os.Executable()
	if err != nil {
		return out, 0, err
	}
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), deleteChildEnv+"=1")
	cmd.Stdin = bytes.NewReader(body)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return out, 0, err
	}
	if err := cmd.Start(); err != nil {
		return out, 0, err
	}
	lines := make(chan string)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()
	// drain lets the reader goroutine finish before cmd.Wait closes the pipe.
	drain := func() {
		for range lines {
		}
	}
	stop := func() {
		_ = cmd.Process.Kill() // the child may already have exited
		drain()
		_ = cmd.Wait() // a killed child reports the signal; nothing to add
	}

	// Set-up (parse + prepare) is not part of the batch, but is bounded
	// too, so a broken child cannot hang the run.
	select {
	case line, ok := <-lines:
		if !ok || line != "ready" {
			stop()
			return out, 0, fmt.Errorf("delete child did not get ready (got %q)", line)
		}
	case <-time.After(time.Minute):
		stop()
		return out, 0, errors.New("delete child did not get ready within a minute")
	}
	readyAt := time.Now()
	timer := time.NewTimer(r.cfg.deleteDeadline)
	defer timer.Stop()
	for {
		select {
		case line, ok := <-lines:
			if !ok {
				err := cmd.Wait()
				return out, time.Since(readyAt), fmt.Errorf("delete child exited without an answer: %v", err)
			}
			fields := strings.Fields(line)
			switch {
			case len(fields) == 3 && fields[0] == "applied":
				out.applyMs, _ = strconv.ParseFloat(fields[1], 64)
				out.seeds, _ = strconv.Atoi(fields[2])
			case len(fields) == 3 && fields[0] == "done":
				d := time.Since(readyAt)
				out.digest = fields[1]
				out.generalized, _ = strconv.Atoi(fields[2])
				drain()
				if err := cmd.Wait(); err != nil {
					return out, d, fmt.Errorf("delete child: %w", err)
				}
				return out, d, nil
			default:
				stop()
				return out, time.Since(readyAt), fmt.Errorf("delete child: unexpected line %q", line)
			}
		case <-timer.C:
			stop()
			return out, time.Since(readyAt), fmt.Errorf("delete batch of %d rows timed out after %v", len(rows), r.cfg.deleteDeadline)
		}
	}
}

// verifyDelete checks a finished delete batch against cold re-discovery of
// the post-delete snapshot and returns that snapshot.
func verifyDelete(ctx context.Context, r *run, cur snapshot, rows [][]string, out deleteOutcome) (snapshot, bool) {
	snap, err := cur.ds.Apply(ctx, hyfd.Delta{Deletes: rows})
	if err != nil {
		r.fail("apply delete batch", err)
		return cur, false
	}
	cold, err := discover(ctx, snap, 1)
	if err != nil {
		r.fail("cold re-discovery after delete", err)
		return cur, false
	}
	digest := fdDigest(cold.FDs)
	if !r.check("delete batch vs cold re-discovery", out.digest, digest) {
		return cur, false
	}
	return snapshot{ds: snap, cover: cold.Set, digest: digest}, true
}

// deleteChild serves one delete batch: it reads a deleteRequest, prepares
// the snapshot, says "ready", maintains the cover across the deletes and
// prints "done <digest> <generalized>". With Split it first prints
// "applied <ms> <delete seeds>" after Dataset.Apply.
func deleteChild(ctx context.Context, in io.Reader, out io.Writer) error {
	var req deleteRequest
	if err := json.NewDecoder(in).Decode(&req); err != nil {
		return fmt.Errorf("decode request: %w", err)
	}
	rel, err := hyfd.ReadCSV("snapshot", bytes.NewReader(req.CSV), csvOptions)
	if err != nil {
		return err
	}
	ds, err := hyfd.Prepare(ctx, rel, hyfd.PrepareOptions{})
	if err != nil {
		return err
	}
	n := ds.NumCols()
	cover := fd.NewSet(n)
	for _, c := range req.Cover {
		if len(c) == 0 {
			return errors.New("empty cover entry")
		}
		cover.Add(hyfd.FD{Lhs: hyfd.NewAttrSet(n, c[:len(c)-1]...), Rhs: c[len(c)-1]})
	}
	fmt.Fprintln(out, "ready")
	delta := hyfd.Delta{Deletes: req.Deletes}
	if !req.Split {
		res, err := hyfd.Run(ctx, hyfd.Request{
			Dataset: ds, Mode: hyfd.ModeIncremental, Delta: &delta, Base: cover,
			Options: hyfd.Options{Threads: 1},
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "done %s 0\n", fdDigest(res.FDs))
		return nil
	}
	t := time.Now()
	snap, err := ds.Apply(ctx, delta)
	if err != nil {
		return err
	}
	applied := time.Since(t)
	seeds := map[string]bool{}
	for _, rec := range snap.Provenance().DeletedRecords {
		var b strings.Builder
		for a, cid := range rec {
			if cid != pli.Singleton {
				fmt.Fprintf(&b, "%d,", a)
			}
		}
		seeds[b.String()] = true
	}
	fmt.Fprintf(out, "applied %f %d\n", ms(applied), len(seeds))
	set, st, err := incremental.Maintain(ctx, snap, cover, incremental.Config{Threads: 1})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "done %s %d\n", fdDigest(set.All()), st.Generalized)
	return nil
}
