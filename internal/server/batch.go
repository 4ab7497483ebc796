package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"repro/internal/harness"
)

// BatchCell is one requested cell of a POST /run batch. Field names match
// the single-cell JSON output (`procs`, not `p`); zero values take the
// same defaults as the GET endpoint (version "orig", platform "svm",
// procs 16, scale 1).
type BatchCell struct {
	App      string  `json:"app"`
	Version  string  `json:"version,omitempty"`
	Platform string  `json:"platform,omitempty"`
	Procs    int     `json:"procs,omitempty"`
	Scale    float64 `json:"scale,omitempty"`
	FreeCS   bool    `json:"freecs,omitempty"`
	Check    bool    `json:"check,omitempty"`
	Speedup  bool    `json:"speedup,omitempty"`
}

// BatchResult is one NDJSON line of a POST /run response: the envelope
// around the exact bytes the single-cell GET endpoint returns for the
// same cell. Results stream in completion order; Index ties each line
// back to its position in the request array. Exactly one of Body / Error
// is set: Body carries the byte-identical `svmsim -json` document
// (including its trailing newline, and including 422 structured-error
// documents) as a JSON string, Error carries a cell-level request error
// (e.g. a malformed processor count) with Code 400.
type BatchResult struct {
	Index int    `json:"index"`
	Code  int    `json:"code"`
	Body  string `json:"body,omitempty"`
	Error string `json:"error,omitempty"`
}

// spec converts the cell to a harness spec, validating the fields the
// query parser would reject.
func (c BatchCell) spec() (harness.Spec, error) {
	if c.App == "" {
		return harness.Spec{}, fmt.Errorf("missing required field \"app\"")
	}
	if c.Procs < 0 {
		return harness.Spec{}, fmt.Errorf("bad processor count %d (want a positive integer)", c.Procs)
	}
	if c.Scale < 0 {
		return harness.Spec{}, fmt.Errorf("bad scale %g (want a positive number)", c.Scale)
	}
	return harness.Spec{
		App:          c.App,
		Version:      c.Version,
		Platform:     c.Platform,
		NumProcs:     c.Procs,
		Scale:        c.Scale,
		FreeCSFaults: c.FreeCS,
		Check:        c.Check,
	}, nil
}

// CampaignHeader, when present on a POST /run batch, names the campaign
// the batch belongs to; the server then counts each cell's outcome in the
// svmserve_campaign_cells_total metric (status="done" for 200, "failed"
// otherwise). CampaignRetryHeader additionally marks a batch that a
// campaign client is re-sending after a transient failure; its cells are
// also counted under status="retried". The headers only drive metrics —
// execution and routing are identical with or without them.
const (
	CampaignHeader      = "X-Campaign"
	CampaignRetryHeader = "X-Campaign-Retry"
)

// handleRunBatch serves POST /run: a JSON array of cells in, one NDJSON
// BatchResult per cell out, flushed as each completes. The batch occupies
// one admission slot (like /figures) and fans its cells out over its own
// pool bounded by MaxInflight; each cell takes the same cluster-routing
// path as a single GET, so a batch spanning many owners fans out across
// the fleet and still computes every unique cold cell exactly once.
func (s *Server) handleRunBatch(w http.ResponseWriter, r *http.Request) {
	var cells []BatchCell
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(&cells); err != nil {
		http.Error(w, "serve: parsing batch body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(cells) == 0 {
		http.Error(w, "serve: empty batch (want a JSON array of cells)", http.StatusBadRequest)
		return
	}
	if len(cells) > s.cfg.MaxBatchCells {
		http.Error(w, fmt.Sprintf("serve: batch of %d cells exceeds the %d-cell limit", len(cells), s.cfg.MaxBatchCells), http.StatusBadRequest)
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
	defer cancel()
	// One admission slot for the whole batch; shedding and slot-timeout
	// behavior match single requests.
	if !s.admit(ctx, w) {
		return
	}
	defer func() { <-s.slots }()
	s.mx.inflight.Add(1)
	defer s.mx.inflight.Add(-1)

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	var wmu sync.Mutex
	emit := func(res BatchResult) {
		wmu.Lock()
		defer wmu.Unlock()
		if err := enc.Encode(res); err != nil {
			return // client gone; workers still finish and cache
		}
		if flusher != nil {
			flusher.Flush()
		}
	}

	forwarded := r.Header.Get(ForwardHeader) != ""
	campaign := r.Header.Get(CampaignHeader) != ""
	campaignRetry := campaign && r.Header.Get(CampaignRetryHeader) != ""
	// Every accepted cell is computed and cached even if the client
	// leaves mid-batch, so the pool runs under a background context.
	harness.ForEach(context.Background(), s.cfg.MaxInflight, len(cells), func(i int) {
		s.mx.batchCells.Add(1)
		if campaignRetry {
			s.mx.campaignRetried.Add(1)
		}
		spec, err := cells[i].spec()
		if err != nil {
			if campaign {
				s.mx.campaignFailed.Add(1)
			}
			emit(BatchResult{Index: i, Code: http.StatusBadRequest, Error: err.Error()})
			return
		}
		body, _, code := s.routeRun(ctx, spec, cells[i].Speedup, forwarded)
		if campaign {
			if code == http.StatusOK {
				s.mx.campaignDone.Add(1)
			} else {
				s.mx.campaignFailed.Add(1)
			}
		}
		emit(BatchResult{Index: i, Code: code, Body: string(body)})
	})
}
