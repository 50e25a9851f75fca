package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// Artifact is the machine-readable record of one executed experiment: the
// environment it ran under plus every job result, including per-run Stats
// and (for metered HyFD runs) the full metrics snapshot. cmd/bench writes
// one artifact per experiment as BENCH_<id>.json; EXPERIMENTS.md documents
// how to read and compare them across commits.
type Artifact struct {
	// Experiment is the Experiment.ID (e.g. "table1").
	Experiment string `json:"experiment"`
	Title      string `json:"title"`
	// CreatedUnix is the artifact's creation time (Unix seconds, UTC).
	CreatedUnix int64  `json:"created_unix"`
	GoVersion   string `json:"go_version"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	NumCPU      int    `json:"num_cpu"`
	// GOMAXPROCS is the scheduler's worker ceiling at artifact creation —
	// the bound that actually limits multi-threaded runs, which can sit
	// below NumCPU in containers.
	GOMAXPROCS int `json:"gomaxprocs"`
	// SingleCPUCaveat flags artifacts produced with only one schedulable
	// CPU: every multi-threaded variant then time-slices a single core, so
	// parallel "speedups" in this artifact measure overhead, not speedup.
	SingleCPUCaveat bool     `json:"single_cpu_caveat"`
	Results         []Result `json:"results"`
	// Derived holds the experiment's condensed scalar metrics (see
	// Experiment.Derive), e.g. the prep experiment's parallel speedups.
	Derived map[string]float64 `json:"derived,omitempty"`
}

// NewArtifact assembles an artifact for one experiment's results, stamping
// the current time and build environment.
func NewArtifact(exp Experiment, results []Result) Artifact {
	a := Artifact{
		Experiment:  exp.ID,
		Title:       exp.Title,
		CreatedUnix: time.Now().Unix(),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Results:     results,
	}
	a.SingleCPUCaveat = a.NumCPU <= 1 || a.GOMAXPROCS <= 1
	if exp.Derive != nil {
		a.Derived = exp.Derive(results)
	}
	return a
}

// Filename returns the artifact's canonical file name, BENCH_<id>.json.
func (a Artifact) Filename() string {
	return fmt.Sprintf("BENCH_%s.json", a.Experiment)
}

// WriteFile writes the artifact as indented JSON into dir under its
// canonical name and returns the full path.
func (a Artifact) WriteFile(dir string) (string, error) {
	path := filepath.Join(dir, a.Filename())
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(a); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// ReadArtifactFile parses an artifact written by WriteFile.
func ReadArtifactFile(path string) (Artifact, error) {
	var a Artifact
	data, err := os.ReadFile(path)
	if err != nil {
		return a, err
	}
	if err := json.Unmarshal(data, &a); err != nil {
		return a, fmt.Errorf("%s: %w", path, err)
	}
	return a, nil
}
