package campaign

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/harness"
	"repro/internal/server"
)

// Fleet executes cells against a serve fleet: cells are sharded by the
// same consistent-hash ring the fleet itself routes by (so almost every
// batch lands directly on its cells' owner and no forwarding hop is
// paid), grouped into NDJSON POST /run batches, and retried with
// exponential backoff on transient failures — an unreachable node, a 5xx,
// a shed 429, a cut stream. Deterministic outcomes (200 results and 422
// structured failures) are never retried. Batches carry the X-Campaign
// header so the fleet's /metrics export campaign progress.
type Fleet struct {
	// Addrs are the fleet members, as base URLs or host:port.
	Addrs []string
	// Campaign is the X-Campaign header value (the campaign name).
	Campaign string
	// BatchSize bounds cells per POST (default 64): small enough that a
	// lost stream re-runs little, large enough to amortize the request.
	BatchSize int
	// Workers bounds concurrent batch requests (default 2 per node).
	Workers int
	// MaxAttempts bounds tries per cell, first included (default 4).
	MaxAttempts int
	// Backoff is the first retry's delay, doubled per attempt and capped
	// at 5s (default 250ms).
	Backoff time.Duration
	// Client issues the requests (default: a keep-alive client with no
	// overall timeout — batches of cold simulations are legitimately
	// slow, and ctx bounds the campaign).
	Client *http.Client
}

func (f *Fleet) client() *http.Client {
	if f.Client != nil {
		return f.Client
	}
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        64,
		MaxIdleConnsPerHost: 16,
		IdleConnTimeout:     90 * time.Second,
	}}
}

// ringName maps a fleet address to the member name the servers hash by
// (their advertised host:port), so client-side sharding agrees with the
// fleet's own ownership ring and batches land on their owners directly.
// A mismatch is harmless — the fleet forwards — it just costs a hop.
func ringName(addr string) string {
	if i := strings.Index(addr, "://"); i >= 0 {
		addr = addr[i+3:]
	}
	return strings.TrimSuffix(addr, "/")
}

// batchJob is one POST-able chunk: cells that share an owner.
type batchJob struct {
	addr  int // index into Addrs
	cells []Cell
}

// Execute shards cells by ring ownership, posts them as batches, and
// emits every settled outcome. Transient failures rotate to the next
// fleet member (which forwards or falls back as needed) and back off
// exponentially; cells still failing after MaxAttempts are emitted as
// transient failures, which the journal deliberately does not settle.
func (f *Fleet) Execute(ctx context.Context, cells []Cell, emit func(Outcome)) {
	batchSize := f.BatchSize
	if batchSize <= 0 {
		batchSize = 64
	}
	workers := f.Workers
	if workers <= 0 {
		workers = 2 * len(f.Addrs)
	}
	maxAttempts := f.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = 4
	}
	backoff := f.Backoff
	if backoff <= 0 {
		backoff = 250 * time.Millisecond
	}
	client := f.client()

	names := make([]string, len(f.Addrs))
	addrOf := map[string]int{}
	for i, a := range f.Addrs {
		names[i] = ringName(a)
		addrOf[names[i]] = i
	}
	ring := cluster.NewRing(names, 0)

	// Group cells by owner, preserving manifest order within each group.
	byOwner := map[int][]Cell{}
	for _, c := range cells {
		owner := 0
		if n := ring.Owner(c.Key, nil); n != "" {
			owner = addrOf[n]
		}
		byOwner[owner] = append(byOwner[owner], c)
	}
	var jobs []batchJob
	owners := make([]int, 0, len(byOwner))
	for o := range byOwner {
		owners = append(owners, o)
	}
	sort.Ints(owners)
	for _, o := range owners {
		group := byOwner[o]
		for len(group) > 0 {
			n := min(batchSize, len(group))
			jobs = append(jobs, batchJob{addr: o, cells: group[:n]})
			group = group[n:]
		}
	}

	// Once ctx is done, unqueued batches stay pending for the resume.
	harness.ForEach(ctx, workers, len(jobs), func(i int) {
		f.runJob(ctx, client, jobs[i], maxAttempts, backoff, emit)
	})
}

// runJob drives one batch to completion: POST, settle what settled,
// retry the rest against the next member after a backoff.
func (f *Fleet) runJob(ctx context.Context, client *http.Client, job batchJob, maxAttempts int, backoff time.Duration, emit func(Outcome)) {
	remaining := job.cells
	addr := job.addr
	for attempt := 1; ; attempt++ {
		settled, transient, terr := f.postBatch(ctx, client, f.Addrs[addr], remaining, attempt)
		for _, o := range settled {
			emit(o)
		}
		if len(transient) == 0 {
			return
		}
		if ctx.Err() != nil {
			return // canceled: unsettled cells stay pending for the resume
		}
		if attempt >= maxAttempts {
			msg := "transient failure after retries"
			if terr != "" {
				msg += ": " + terr
			}
			for _, c := range transient {
				emit(Outcome{Cell: c, Err: msg, Attempts: attempt})
			}
			return
		}
		delay := backoff << (attempt - 1)
		if delay > 5*time.Second {
			delay = 5 * time.Second
		}
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return
		}
		remaining = transient
		addr = (addr + 1) % len(f.Addrs) // a dead owner's cells reach a peer, which forwards or falls back
	}
}

// postBatch sends one POST /run batch and splits the cells into settled
// outcomes and transient leftovers. terr describes the transport-level
// cause when the whole batch (or its tail) failed.
func (f *Fleet) postBatch(ctx context.Context, client *http.Client, baseAddr string, cells []Cell, attempt int) (settled []Outcome, transient []Cell, terr string) {
	req := make([]server.BatchCell, len(cells))
	for i, c := range cells {
		req[i] = server.BatchCell{
			App:      c.Spec.App,
			Version:  c.Spec.Version,
			Platform: c.Spec.Platform,
			Procs:    c.Spec.NumProcs,
			Scale:    c.Spec.Scale,
			Check:    c.Spec.Check,
		}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, cells, err.Error()
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, cluster.BaseURL(baseAddr)+"/run", bytes.NewReader(body))
	if err != nil {
		return nil, cells, err.Error()
	}
	httpReq.Header.Set("Content-Type", "application/json")
	httpReq.Header.Set(server.CampaignHeader, f.Campaign)
	if attempt > 1 {
		httpReq.Header.Set(server.CampaignRetryHeader, strconv.Itoa(attempt-1))
	}
	resp, err := client.Do(httpReq)
	if err != nil {
		return nil, cells, err.Error()
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// Whole-batch rejection: 429 shed, 400, 5xx. All transient from
		// the campaign's point of view — a 400 here means a server-side
		// limit (e.g. batch size), and rotating/retrying is still the
		// right move until attempts run out.
		io.Copy(io.Discard, resp.Body)
		return nil, cells, fmt.Sprintf("%s: HTTP %d", baseAddr, resp.StatusCode)
	}

	got := make([]bool, len(cells))
	r := bufio.NewReader(resp.Body)
	for {
		line, err := r.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			var res server.BatchResult
			if jerr := json.Unmarshal(line, &res); jerr == nil && res.Index >= 0 && res.Index < len(cells) && !got[res.Index] {
				c := cells[res.Index]
				switch {
				case res.Code == http.StatusOK || res.Code == http.StatusUnprocessableEntity:
					got[res.Index] = true
					settled = append(settled, Outcome{Cell: c, Code: res.Code, Body: []byte(res.Body), Attempts: attempt})
				case res.Code == http.StatusBadRequest:
					got[res.Index] = true
					settled = append(settled, Outcome{Cell: c, Code: res.Code, Err: res.Error, Attempts: attempt})
				default:
					// 429/504 for one cell inside an accepted batch:
					// leave it un-got, it lands in transient below.
				}
			}
		}
		if err != nil {
			if err != io.EOF {
				terr = err.Error()
			}
			break
		}
	}
	for i, ok := range got {
		if !ok {
			transient = append(transient, cells[i])
		}
	}
	if len(transient) > 0 && terr == "" {
		terr = baseAddr + ": incomplete batch response"
	}
	return settled, transient, terr
}
