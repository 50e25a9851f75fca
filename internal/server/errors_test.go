package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hyfd"
)

// TestStatusForTable exhaustively pins the error → HTTP status mapping: every
// sentinel in the server's vocabulary, the engine sentinels the API surfaces,
// the context terminals, and the fallbacks — each both bare and wrapped
// (handlers always wrap with %w, so the mapping must survive wrapping).
func TestStatusForTable(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"nil", nil, http.StatusOK},
		{"bad request", ErrBadRequest, http.StatusBadRequest},
		{"body too large", ErrBodyTooLarge, http.StatusRequestEntityTooLarge},
		{"unknown algorithm", hyfd.ErrUnknownAlgorithm, http.StatusBadRequest},
		{"unknown mode", hyfd.ErrUnknownMode, http.StatusBadRequest},
		{"unknown dataset", ErrUnknownDataset, http.StatusNotFound},
		{"unknown job", ErrUnknownJob, http.StatusNotFound},
		{"dataset exists", ErrDatasetExists, http.StatusConflict},
		{"queue full", ErrQueueFull, http.StatusTooManyRequests},
		{"shutting down", ErrShuttingDown, http.StatusServiceUnavailable},
		{"deadline exceeded", context.DeadlineExceeded, http.StatusGatewayTimeout},
		{"canceled", context.Canceled, StatusClientClosedRequest},
		{"unrecognized", errors.New("boom"), http.StatusInternalServerError},
	}
	for _, tc := range cases {
		if got := StatusFor(tc.err); got != tc.want {
			t.Errorf("%s: StatusFor = %d, want %d", tc.name, got, tc.want)
		}
		if tc.err == nil {
			continue
		}
		wrapped := fmt.Errorf("outer context: %w", tc.err)
		if got := StatusFor(wrapped); got != tc.want {
			t.Errorf("%s (wrapped): StatusFor = %d, want %d", tc.name, got, tc.want)
		}
		doubly := fmt.Errorf("handler: %w", wrapped)
		if got := StatusFor(doubly); got != tc.want {
			t.Errorf("%s (doubly wrapped): StatusFor = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestStatusForCoversAllSentinels: the mapping table above must name every
// sentinel the package declares — adding a sentinel without classifying it
// here fails the build of the error contract, not just a runtime 500.
func TestStatusForCoversAllSentinels(t *testing.T) {
	sentinels := []error{
		ErrUnknownDataset, ErrDatasetExists, ErrUnknownJob,
		ErrQueueFull, ErrShuttingDown, ErrBadRequest, ErrBodyTooLarge,
	}
	for _, s := range sentinels {
		if StatusFor(s) == http.StatusInternalServerError {
			t.Errorf("sentinel %q falls through to 500 — add it to StatusFor", s)
		}
	}
}

// TestWriteErrorEnvelope: every error renders as the JSON envelope with the
// mapped status, and 429s carry the Retry-After hint.
func TestWriteErrorEnvelope(t *testing.T) {
	s := New(context.Background(), Config{})
	for _, tc := range []struct {
		err        error
		want       int
		retryAfter bool
	}{
		{fmt.Errorf("%w: no such table", ErrUnknownDataset), 404, false},
		{fmt.Errorf("%w (depth 8)", ErrQueueFull), 429, true},
		{errors.New("opaque"), 500, false},
	} {
		rec := httptest.NewRecorder()
		s.writeError(rec, tc.err)
		if rec.Code != tc.want {
			t.Fatalf("%v: code %d, want %d", tc.err, rec.Code, tc.want)
		}
		if got := rec.Header().Get("Content-Type"); got != "application/json" {
			t.Fatalf("%v: content type %q", tc.err, got)
		}
		var body errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("%v: body not JSON: %v", tc.err, err)
		}
		if body.Status != tc.want || body.Error == "" {
			t.Fatalf("%v: envelope %+v", tc.err, body)
		}
		if tc.retryAfter && rec.Header().Get("Retry-After") == "" {
			t.Fatalf("%v: 429 missing Retry-After", tc.err)
		}
		if !tc.retryAfter && rec.Header().Get("Retry-After") != "" {
			t.Fatalf("%v: unexpected Retry-After", tc.err)
		}
	}
}

// fillReader yields an endless stream of one byte.
type fillReader byte

func (f fillReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(f)
	}
	return len(p), nil
}

// TestOversizedBodyIs413: a registration whose body exceeds maxBodyBytes is
// refused with 413 and the JSON error envelope, and nothing is registered.
func TestOversizedBodyIs413(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := io.MultiReader(
		strings.NewReader(`{"name":"big","csv":"`),
		io.LimitReader(fillReader('a'), maxBodyBytes),
		strings.NewReader(`"}`),
	)
	resp, err := http.Post(ts.URL+"/v1/datasets", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var envelope errorBody
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatalf("body not a JSON envelope: %v", err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge || envelope.Status != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, envelope %+v; want 413", resp.StatusCode, envelope)
	}
	if code, data := do(t, "GET", ts.URL+"/v1/datasets/big", ""); code != http.StatusNotFound {
		t.Fatalf("oversized registration left a dataset behind: %d %s", code, data)
	}
}
