package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// buildBinary compiles one of the repo's commands into dir.
func buildBinary(t *testing.T, dir, pkg, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, pkg)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Skipf("cannot build %s in test environment: %v\n%s", pkg, err, out)
	}
	return bin
}

const smokeCSV = "Zip,City,State\n14482,Potsdam,BB\n14469,Potsdam,BB\n10115,Berlin,BE\n10117,Berlin,BE\n99084,Erfurt,TH\n"

// postJSON posts a JSON body and returns status + response bytes.
func postJSON(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, data
}

// getBody GETs a URL and returns status + body.
func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, data
}

// jobView mirrors the wire job document (only the fields the smoke asserts).
type jobView struct {
	ID             string `json:"id"`
	Status         string `json:"status"`
	Error          string `json:"error"`
	DatasetVersion int    `json:"dataset_version"`
	Result         *struct {
		FDs    []string `json:"fds"`
		AFDs   []string `json:"afds"`
		UCCs   []string `json:"uccs"`
		Ranked []struct {
			FD    string  `json:"fd"`
			Score float64 `json:"score"`
			Rank  int     `json:"rank"`
		} `json:"ranked"`
		Partial bool `json:"partial"`
		Count   int  `json:"count"`
		Stats   *struct {
			Warm            bool  `json:"warm,omitempty"`
			PreprocessingNs int64 `json:"preprocessing_ns"`
		} `json:"stats"`
	} `json:"result"`
}

// runJob submits one job and polls it to a terminal state.
func runJob(t *testing.T, base, body string) jobView {
	t.Helper()
	code, data := postJSON(t, base+"/v1/jobs", body)
	if code != http.StatusAccepted {
		t.Fatalf("submit %s: status %d: %s", body, code, data)
	}
	var view jobView
	if err := json.Unmarshal(data, &view); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		code, data := getBody(t, base+"/v1/jobs/"+view.ID)
		if code != http.StatusOK {
			t.Fatalf("poll: status %d: %s", code, data)
		}
		if err := json.Unmarshal(data, &view); err != nil {
			t.Fatal(err)
		}
		switch view.Status {
		case "done", "failed", "canceled":
			return view
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", view.ID)
	return jobView{}
}

// TestServeSmoke is the end-to-end daemon exercise behind `make serve-smoke`:
// build hyfdd, start it on an ephemeral port, register a CSV from the data
// directory, run one job per mode, compare the warm FD result byte-for-byte
// against a cold cmd/hyfd run on the same file, scrape the metrics surfaces,
// and assert a clean SIGTERM shutdown with a final metrics snapshot.
func TestServeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	dir := t.TempDir()
	daemon := buildBinary(t, dir, ".", "hyfdd-test-bin")
	cli := buildBinary(t, dir, "hyfd/cmd/hyfd", "hyfd-test-bin")

	dataDir := filepath.Join(dir, "data")
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		t.Fatal(err)
	}
	csvPath := filepath.Join(dataDir, "zips.csv")
	if err := os.WriteFile(csvPath, []byte(smokeCSV), 0o644); err != nil {
		t.Fatal(err)
	}

	addrFile := filepath.Join(dir, "addr")
	metricsFile := filepath.Join(dir, "final-metrics.json")
	cmd := exec.Command(daemon,
		"-addr", "127.0.0.1:0",
		"-addr-file", addrFile,
		"-data-dir", dataDir,
		"-workers", "2",
		"-queue", "8",
		"-grace", "10s",
		"-final-metrics", metricsFile,
	)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var exitErr error
	exited := make(chan struct{}) // closed when the daemon exits; exitErr is set before the close
	go func() { exitErr = cmd.Wait(); close(exited) }()
	defer func() {
		select {
		case <-exited:
		default:
			_ = cmd.Process.Kill()
			<-exited
		}
	}()

	// Wait for the daemon to announce its bound address.
	var base string
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); {
		if addr, err := os.ReadFile(addrFile); err == nil && len(addr) > 0 {
			base = "http://" + string(addr)
			break
		}
		select {
		case <-exited:
			t.Fatalf("daemon exited during startup: %v\n%s", exitErr, stderr.String())
		case <-time.After(10 * time.Millisecond):
		}
	}
	if base == "" {
		t.Fatalf("daemon never wrote %s\n%s", addrFile, stderr.String())
	}

	// Register the CSV by path (confined to -data-dir).
	code, data := postJSON(t, base+"/v1/datasets", `{"name":"zips","path":"zips.csv"}`)
	if code != http.StatusCreated {
		t.Fatalf("register: status %d: %s", code, data)
	}

	// One job per mode, all warm.
	fdJob := runJob(t, base, `{"dataset":"zips","mode":"fd","threads":1}`)
	if fdJob.Status != "done" || len(fdJob.Result.FDs) == 0 {
		t.Fatalf("fd job: %+v (%s)", fdJob, fdJob.Error)
	}
	if fdJob.Result.Stats == nil || !fdJob.Result.Stats.Warm || fdJob.Result.Stats.PreprocessingNs > int64(time.Millisecond) {
		t.Fatalf("fd job must run warm with near-zero prepare time: %+v", fdJob.Result.Stats)
	}
	afdJob := runJob(t, base, `{"dataset":"zips","mode":"afd","max_error":0.3}`)
	if afdJob.Status != "done" || len(afdJob.Result.AFDs) == 0 {
		t.Fatalf("afd job: %+v (%s)", afdJob, afdJob.Error)
	}
	uccJob := runJob(t, base, `{"dataset":"zips","mode":"ucc"}`)
	if uccJob.Status != "done" || len(uccJob.Result.UCCs) == 0 {
		t.Fatalf("ucc job: %+v (%s)", uccJob, uccJob.Error)
	}
	rankedJob := runJob(t, base, `{"dataset":"zips","mode":"ranked","top_k":2,"threads":1}`)
	if rankedJob.Status != "done" || len(rankedJob.Result.Ranked) != 2 || rankedJob.Result.Partial {
		t.Fatalf("ranked job: %+v (%s)", rankedJob, rankedJob.Error)
	}
	for i, r := range rankedJob.Result.Ranked {
		if r.Rank != i+1 || r.FD == "" {
			t.Fatalf("ranked job item %d malformed: %+v", i, r)
		}
		if i > 0 && r.Score > rankedJob.Result.Ranked[i-1].Score {
			t.Fatalf("ranked job scores not monotone: %+v", rankedJob.Result.Ranked)
		}
	}

	// Acceptance bar: the warm serving result is byte-identical to a cold
	// cmd/hyfd run on the same input at the same thread count.
	out, err := exec.Command(cli, "-threads", "1", csvPath).Output()
	if err != nil {
		t.Fatalf("cold CLI run: %v", err)
	}
	cold := strings.TrimRight(string(out), "\n")
	warm := strings.Join(fdJob.Result.FDs, "\n")
	if warm != cold {
		t.Fatalf("warm serving FDs diverge from cold CLI run\nwarm:\n%s\ncold:\n%s", warm, cold)
	}

	// Streaming ingest: a delta advances the dataset to a new snapshot
	// version, the next job pins that version, and its warm result is
	// byte-identical to a cold CLI run over the delta'd content. The
	// inserted row breaks City→State, so the v2 result provably reflects
	// the new rows.
	if fdJob.DatasetVersion != 1 {
		t.Fatalf("pre-delta job pinned to version %d, want 1", fdJob.DatasetVersion)
	}
	code, data = postJSON(t, base+"/v1/datasets/zips/delta", `{"inserts":[["10999","Berlin","XX"]]}`)
	if code != http.StatusOK {
		t.Fatalf("delta: status %d: %s", code, data)
	}
	var deltaResp struct {
		Dataset struct {
			Version int `json:"version"`
			Rows    int `json:"rows"`
		} `json:"dataset"`
		Inserts int `json:"inserts"`
	}
	if err := json.Unmarshal(data, &deltaResp); err != nil {
		t.Fatal(err)
	}
	if deltaResp.Dataset.Version != 2 || deltaResp.Dataset.Rows != 6 || deltaResp.Inserts != 1 {
		t.Fatalf("delta response: %+v, want version 2, 6 rows, 1 insert", deltaResp)
	}
	fdJob2 := runJob(t, base, `{"dataset":"zips","mode":"fd","threads":1}`)
	if fdJob2.Status != "done" || fdJob2.DatasetVersion != 2 {
		t.Fatalf("post-delta fd job: status %q version %d (%s), want done on version 2",
			fdJob2.Status, fdJob2.DatasetVersion, fdJob2.Error)
	}
	csv2 := filepath.Join(dataDir, "zips2.csv")
	if err := os.WriteFile(csv2, []byte(smokeCSV+"10999,Berlin,XX\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out2, err := exec.Command(cli, "-threads", "1", csv2).Output()
	if err != nil {
		t.Fatalf("cold CLI run on delta'd content: %v", err)
	}
	cold2 := strings.TrimRight(string(out2), "\n")
	warm2 := strings.Join(fdJob2.Result.FDs, "\n")
	if warm2 != cold2 {
		t.Fatalf("post-delta warm FDs diverge from cold run over the delta'd content\nwarm:\n%s\ncold:\n%s", warm2, cold2)
	}
	if warm2 == warm {
		t.Fatal("post-delta FD set did not change even though the insert breaks City->State")
	}

	// The finished job's flight recorder holds the full server-stage
	// timeline, and the Chrome rendering is a loadable trace-event document.
	code, data = getBody(t, base+"/v1/jobs/"+fdJob.ID+"/trace")
	if code != http.StatusOK {
		t.Fatalf("job trace: %d %s", code, data)
	}
	var traceDoc struct {
		Spans []struct {
			Name string `json:"name"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(data, &traceDoc); err != nil {
		t.Fatalf("job trace not JSON: %v\n%s", err, data)
	}
	spanNames := map[string]bool{}
	for _, sp := range traceDoc.Spans {
		spanNames[sp.Name] = true
	}
	for _, want := range []string{"job", "admission", "queue.wait", "run", "encode"} {
		if !spanNames[want] {
			t.Fatalf("job trace missing %q span: %s", want, data)
		}
	}
	code, data = getBody(t, base+"/v1/jobs/"+fdJob.ID+"/trace?format=chrome")
	if code != http.StatusOK || !json.Valid(data) || !strings.Contains(string(data), `"traceEvents"`) {
		t.Fatalf("chrome trace: %d\n%.400s", code, data)
	}

	// Observability surfaces on the same mux.
	code, data = getBody(t, base+"/metrics")
	if code != http.StatusOK || !strings.Contains(string(data), "hyfdd_up 1") {
		t.Fatalf("metrics: %d\n%.400s", code, data)
	}
	if !strings.Contains(string(data), `hyfdd_jobs_total{status="done"} 5`) {
		t.Fatalf("metrics missing done-job counter:\n%.1500s", data)
	}
	if !strings.Contains(string(data), "hyfdd_dataset_deltas_total 1") {
		t.Fatalf("metrics missing dataset-delta counter:\n%.1500s", data)
	}
	if !strings.Contains(string(data), "hyfd_ranked_emitted_total 2") {
		t.Fatalf("metrics missing ranked-emitted counter:\n%.1500s", data)
	}
	code, data = getBody(t, base+"/metrics.json")
	if code != http.StatusOK || !json.Valid(data) {
		t.Fatalf("metrics.json: %d", code)
	}
	if code, _ := getBody(t, base+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if code, _ := getBody(t, base+"/readyz"); code != http.StatusOK {
		t.Fatalf("readyz: %d", code)
	}
	code, data = getBody(t, base+"/debug/slowjobs")
	if code != http.StatusOK || !strings.Contains(string(data), `"zips"`) {
		t.Fatalf("slowjobs: %d\n%.400s", code, data)
	}

	// Clean shutdown: SIGTERM drains and exits 0 with a final snapshot.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-exited:
		if exitErr != nil {
			t.Fatalf("daemon exit: %v\n%s", exitErr, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon did not exit after SIGTERM\n%s", stderr.String())
	}
	if !strings.Contains(stderr.String(), "shutdown complete") {
		t.Fatalf("missing shutdown message:\n%s", stderr.String())
	}
	snap, err := os.ReadFile(metricsFile)
	if err != nil {
		t.Fatalf("final metrics snapshot: %v", err)
	}
	var doc map[string]any
	if err := json.Unmarshal(snap, &doc); err != nil {
		t.Fatalf("final metrics snapshot not JSON: %v", err)
	}
	if _, ok := doc["counters"]; !ok {
		t.Fatalf("final snapshot missing counters: %.300s", snap)
	}
}

// TestUsageErrors: positional arguments are a usage error (exit 2).
func TestUsageErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := buildBinary(t, t.TempDir(), ".", "hyfdd-test-bin")
	err := exec.Command(bin, "unexpected-arg").Run()
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) || exitErr.ExitCode() != 2 {
		t.Fatalf("want exit 2, got %v", err)
	}
}
