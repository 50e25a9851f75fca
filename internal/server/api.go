package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"hyfd/internal/tracing"
)

// maxBodyBytes caps every request body. The largest legitimate bodies are
// inline-CSV registrations and delta batches, which stay far below it; the
// cap bounds what one request can make the daemon buffer.
const maxBodyBytes = 64 << 20

// decodeJSON strictly parses the request body into v: unknown fields and
// trailing garbage are 400s, so client typos fail loudly instead of being
// silently ignored, and a body over maxBodyBytes is a 413.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return fmt.Errorf("%w: limit is %d bytes", ErrBodyTooLarge, tooLarge.Limit)
		}
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if dec.More() {
		return fmt.Errorf("%w: trailing data after JSON body", ErrBadRequest)
	}
	return nil
}

// handleDatasetCreate registers a dataset: POST /v1/datasets.
func (s *Server) handleDatasetCreate(w http.ResponseWriter, r *http.Request) {
	var req DatasetRequest
	if err := decodeJSON(w, r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	s.mu.Lock()
	closing := s.closing
	s.mu.Unlock()
	if closing {
		s.writeError(w, ErrShuttingDown)
		return
	}
	// Preparation is bounded by the request context: an impatient client
	// aborts its own registration, not the server.
	info, err := s.datasets.register(r.Context(), req, s.cfg.DataDir)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.inst.datasets.Set(float64(s.datasets.count()))
	s.inst.prepSeconds.Observe(float64(info.PrepareNs) / 1e9)
	w.Header().Set("Location", "/v1/datasets/"+info.Name)
	writeJSON(w, http.StatusCreated, info)
}

// handleDatasetDelta applies one insert/delete batch to a registration:
// POST /v1/datasets/{name}/delta. Success advances the dataset to a new
// immutable snapshot version; jobs admitted earlier keep the version they
// resolved. A delta racing another delta on the same dataset answers 409
// (retry against the new version); a draining server answers 503 with
// Retry-After, the same contract as job admission.
func (s *Server) handleDatasetDelta(w http.ResponseWriter, r *http.Request) {
	var req DeltaRequest
	if err := decodeJSON(w, r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	s.mu.Lock()
	closing := s.closing
	s.mu.Unlock()
	if closing {
		s.writeError(w, ErrShuttingDown)
		return
	}
	resp, err := s.datasets.applyDelta(r.Context(), r.PathValue("name"), req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.inst.deltas.Inc()
	writeJSON(w, http.StatusOK, resp)
}

// handleDatasetList lists registrations: GET /v1/datasets.
func (s *Server) handleDatasetList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Datasets []DatasetInfo `json:"datasets"`
	}{s.datasets.list()})
}

// handleDatasetGet returns one registration: GET /v1/datasets/{name}.
func (s *Server) handleDatasetGet(w http.ResponseWriter, r *http.Request) {
	_, info, err := s.datasets.lookup(r.PathValue("name"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// handleDatasetDelete unregisters a dataset: DELETE /v1/datasets/{name}.
// Jobs already running over it are unaffected (the Dataset is immutable);
// new jobs naming it get 404.
func (s *Server) handleDatasetDelete(w http.ResponseWriter, r *http.Request) {
	if err := s.datasets.remove(r.PathValue("name")); err != nil {
		s.writeError(w, err)
		return
	}
	s.inst.datasets.Set(float64(s.datasets.count()))
	w.WriteHeader(http.StatusNoContent)
}

// handleJobCreate submits a job: POST /v1/jobs. Accepted jobs answer 202
// with the job view and a Location header; a full queue answers 429 with
// Retry-After. The job runs on the server's context, not the request's —
// it outlives this POST.
func (s *Server) handleJobCreate(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if err := decodeJSON(w, r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	j, err := s.submit(req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	writeJSON(w, http.StatusAccepted, j.view())
}

// handleJobList lists jobs in submission order: GET /v1/jobs.
func (s *Server) handleJobList(w http.ResponseWriter, _ *http.Request) {
	jobs := s.jobs.list()
	views := make([]JobView, 0, len(jobs))
	for _, j := range jobs {
		views = append(views, j.view())
	}
	writeJSON(w, http.StatusOK, struct {
		Jobs []JobView `json:"jobs"`
	}{views})
}

// handleJobGet returns one job: GET /v1/jobs/{id}.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j, err := s.jobs.get(r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, j.view())
}

// handleJobCancel cancels a job: DELETE /v1/jobs/{id}. Queued jobs cancel
// immediately; running jobs get their context canceled and unwind on the
// engine's next cancellation check. Canceling a finished job is a no-op.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j, err := s.cancelJob(r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, j.view())
}

// handleJobTrace serves a job's flight recorder: GET /v1/jobs/{id}/trace.
// The default rendering is the span-tree JSON document; ?format=chrome
// re-renders it in Chrome trace-event format, which loads directly in
// Perfetto (ui.perfetto.dev) or chrome://tracing. Running jobs answer with
// their timeline so far (open spans carry "open": true); servers running
// with tracing disabled answer 404.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	j, err := s.jobs.get(r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	if j.rec == nil {
		s.writeError(w, fmt.Errorf("%w: tracing disabled (trace capacity < 0)", ErrNoTrace))
		return
	}
	snap := j.rec.Snapshot()
	if r.URL.Query().Get("format") == "chrome" {
		w.Header().Set("Content-Type", "application/json")
		_ = snap.WriteChrome(w)
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

// handleSlowJobs serves the daemon-wide slowest-jobs ring: GET
// /debug/slowjobs, slowest first. With the ring disabled (SlowJobs < 0) the
// list is empty.
func (s *Server) handleSlowJobs(w http.ResponseWriter, _ *http.Request) {
	jobs := s.slow.Snapshot()
	if jobs == nil {
		jobs = []tracing.SlowJob{}
	}
	writeJSON(w, http.StatusOK, struct {
		SlowJobs []tracing.SlowJob `json:"slow_jobs"`
	}{jobs})
}

// handleHealth is the liveness probe: GET /healthz. It answers 200 for the
// whole process lifetime — including shutdown drain, when the process is
// still healthy, just no longer accepting work. Routing decisions belong to
// the readiness probe below.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Status   string `json:"status"`
		Datasets int    `json:"datasets"`
		Queued   int    `json:"queued"`
	}{"ok", s.datasets.count(), len(s.queue)})
}

// handleReady is the readiness probe: GET /readyz. It flips to 503 the
// moment BeginShutdown gates admission, so load balancers stop routing new
// work here while in-flight jobs drain.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	closing := s.closing
	s.mu.Unlock()
	if closing {
		s.writeError(w, ErrShuttingDown)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Status   string `json:"status"`
		Datasets int    `json:"datasets"`
		Queued   int    `json:"queued"`
	}{"ready", s.datasets.count(), len(s.queue)})
}
