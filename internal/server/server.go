// Package server is the simulation-serving layer: an HTTP front end over
// the harness experiment cache, turning the paper's (app, version, platform,
// procs) matrix into a queryable service. Requests for the same cell
// coalesce (the memo's singleflight), hit the persistent store when one is
// attached, and only simulate when genuinely cold — the cache/coalesce/
// admission-control architecture of an inference-serving stack, applied to
// a deterministic simulator.
//
// Endpoints:
//
//	GET /run?app=A&version=V&platform=P&p=N&scale=S[&speedup=1][&freecs=1][&check=1]
//	    The exact bytes `svmsim -json` prints for the same spec (a failed
//	    cell returns the same structured error JSON with status 422).
//	POST /run
//	    Batched: a JSON array of cells in, NDJSON envelopes out as each
//	    cell completes; every envelope body is the exact single-cell GET
//	    bytes. See batch.go.
//	GET /figures?fig=fig16[&p=N][&scale=S][&check=1]   (fig=headline allowed)
//	GET /healthz   200 "ok" — or 503 "draining" once Drain has been called
//	GET /metrics
//
// Overload behavior: at most MaxInflight requests execute at once; up to
// MaxQueue more wait; beyond that the server sheds load with 429 and a
// Retry-After hint. Every request carries a deadline — if it fires while a
// simulation is still running, the client gets 504 but the simulation
// completes and is cached, so a retry is cheap.
//
// Cluster behavior (Config.Cluster set): the owner of a /run cell is the
// consistent-hash ring member for its spec memo-key. A request for a cell
// owned by a live peer is forwarded there (one hop, marked with the
// X-Cluster-Forwarded header, so the owner never re-forwards), which makes
// the owner's memo tier a cluster-wide singleflight: a unique cold cell is
// simulated exactly once fleet-wide. Forwarded requests bypass the owner's
// admission control — the entry node already holds a slot for them, and
// queueing them behind the owner's slots can deadlock the fleet (see
// Server.run). Deterministic forwarded responses (200/422) are cached at
// the entry node, so a warm fleet serves every cell locally from every
// node. If the forward fails — owner
// unreachable, owner 5xx, or timeout — the node falls back to local
// compute-and-cache and counts cluster_fallback_total; the client never
// sees a cluster-induced error.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/harness"
)

// Config parameterizes a Server. The zero value of each field selects the
// documented default.
type Config struct {
	// Memo is the experiment cache (required). Attach a store to it for
	// persistence; share it to coalesce across servers and runners.
	Memo *harness.Memo
	// MaxInflight bounds concurrently executing requests (default 4).
	MaxInflight int
	// MaxQueue bounds requests waiting for an execution slot before the
	// server sheds with 429 (default 64).
	MaxQueue int
	// Timeout is the per-request deadline (default 120s).
	Timeout time.Duration
	// RetryAfter is the hint sent with 429 responses (default 1s).
	RetryAfter time.Duration
	// Cluster, when non-nil, turns on ownership routing: /run cells owned
	// by a live peer are forwarded to it. See the package comment.
	Cluster *cluster.Cluster
	// MaxBatchCells bounds one POST /run batch (default 1024).
	MaxBatchCells int
}

// Server is an http.Handler; build one with New.
type Server struct {
	cfg       Config
	memo      *harness.Memo
	mx        *metrics
	slots     chan struct{}
	mux       *http.ServeMux
	cluster   *cluster.Cluster
	fwdClient *http.Client

	// fwdCache memoizes the deterministic response bytes a forward brought
	// back (200 results and 422 structured failures), keyed by memo-key.
	// The first request for a non-owned cell pays the hop; warm requests
	// are then local everywhere, so a warm fleet serves at single-node
	// speed instead of spending two HTTP round trips per hit. Grows with
	// unique forwarded cells — the same growth class as the memo itself.
	fwdMu    sync.RWMutex
	fwdCache map[string]fwdEntry
}

// fwdEntry is one cached forwarded response.
type fwdEntry struct {
	body        []byte
	contentType string
	code        int
}

// New builds a Server from cfg, applying defaults.
func New(cfg Config) *Server {
	if cfg.Memo == nil {
		cfg.Memo = harness.NewMemo(nil)
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 4
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 64
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 120 * time.Second
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.MaxBatchCells <= 0 {
		cfg.MaxBatchCells = 1024
	}
	s := &Server{
		cfg:     cfg,
		memo:    cfg.Memo,
		mx:      newMetrics(),
		slots:   make(chan struct{}, cfg.MaxInflight),
		mux:     http.NewServeMux(),
		cluster: cfg.Cluster,
		// Forwarded requests ride the forwarder's request deadline (the
		// context), not a client-level timeout. The transport keeps one
		// idle connection per concurrent forward: with the default
		// transport's 2 idle conns per host, a warm fleet churns a fresh
		// TCP connection for nearly every forwarded hit and p50 balloons.
		fwdClient: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        4 * cfg.MaxInflight,
			MaxIdleConnsPerHost: 4 * cfg.MaxInflight,
			IdleConnTimeout:     90 * time.Second,
		}},
		fwdCache: map[string]fwdEntry{},
	}
	s.mux.HandleFunc("/run", s.handleRun)
	s.mux.HandleFunc("/figures", s.handleFigures)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	return s
}

// statusRecorder captures the response code for the request counter.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
	start := time.Now()
	s.mux.ServeHTTP(rec, r)
	s.mx.countRequest(r.URL.Path, rec.code)
	if r.URL.Path != "/metrics" && r.URL.Path != "/healthz" {
		s.mx.observeLatency(time.Since(start))
	}
}

var errShed = errors.New("admission queue full")

// acquire claims an execution slot, queueing up to MaxQueue waiters.
func (s *Server) acquire(ctx context.Context) error {
	select {
	case s.slots <- struct{}{}:
		return nil
	default:
	}
	if int(s.mx.queued.Add(1)) > s.cfg.MaxQueue {
		s.mx.queued.Add(-1)
		return errShed
	}
	defer s.mx.queued.Add(-1)
	select {
	case s.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// admit claims an execution slot for a handler, writing the error response
// itself when none can be had: 429 with the Retry-After ceiling
// (cfg.RetryAfter rounded up to whole seconds) on shed, 504 on a deadline
// that fired while queued. The single-cell and batch admission paths both go
// through here, so their shed responses cannot drift apart.
func (s *Server) admit(ctx context.Context, w http.ResponseWriter) bool {
	err := s.acquire(ctx)
	if err == nil {
		return true
	}
	if errors.Is(err, errShed) {
		s.mx.shed.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
		http.Error(w, "serve: overloaded, admission queue full", http.StatusTooManyRequests)
		return false
	}
	s.mx.timeouts.Add(1)
	http.Error(w, "serve: timed out waiting for an execution slot", http.StatusGatewayTimeout)
	return false
}

// run admits the request, then executes fn in a goroutine that keeps the
// slot until the work finishes even if the deadline fires first — the
// simulation completes, lands in the cache, and inflight stays truthful.
// fn must be safe to complete after the handler has returned; its ctx is
// canceled when the handler returns, which aborts an in-flight peer
// forward (the owner still finishes and caches) but never a local
// simulation.
//
// With admit=false the request skips admission entirely. Forwarded cluster
// requests run this way: the entry node already holds a slot for them, so
// fleet-wide concurrency stays bounded by the sum of entry admissions —
// and an owner that queued forwards behind its own slots could deadlock
// the fleet (every slot on A held by requests waiting for a slot on B,
// and vice versa, each queued behind the other until the deadline).
func (s *Server) run(w http.ResponseWriter, r *http.Request, admit bool, fn func(ctx context.Context) (body []byte, contentType string, code int)) {
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
	defer cancel()
	if admit && !s.admit(ctx, w) {
		return
	}
	type out struct {
		body        []byte
		contentType string
		code        int
	}
	ch := make(chan out, 1)
	s.mx.inflight.Add(1)
	go func() {
		var o out
		// Release the slot and the gauge before handing the reply over, so
		// a client that has read the reply never sees this request still
		// in flight on /metrics.
		func() {
			defer func() {
				s.mx.inflight.Add(-1)
				if admit {
					<-s.slots
				}
			}()
			o.body, o.contentType, o.code = fn(ctx)
		}()
		ch <- o
	}()
	select {
	case o := <-ch:
		w.Header().Set("Content-Type", o.contentType)
		w.WriteHeader(o.code)
		w.Write(o.body)
	case <-ctx.Done():
		s.mx.timeouts.Add(1)
		http.Error(w, "serve: deadline exceeded (the simulation continues and will be cached)", http.StatusGatewayTimeout)
	}
}

// parseRunSpec builds a harness.Spec from /run query parameters, rejecting
// unknown parameters and malformed values.
func parseRunSpec(q map[string][]string) (spec harness.Spec, speedup bool, err error) {
	one := func(k string) (string, bool, error) {
		vs, ok := q[k]
		if !ok {
			return "", false, nil
		}
		if len(vs) != 1 {
			return "", false, fmt.Errorf("parameter %q given %d times", k, len(vs))
		}
		return vs[0], true, nil
	}
	for k := range q {
		switch k {
		case "app", "version", "platform", "p", "scale", "speedup", "freecs", "check":
		default:
			return spec, false, fmt.Errorf("unknown parameter %q", k)
		}
	}
	var ok bool
	if spec.App, ok, err = one("app"); err != nil {
		return spec, false, err
	} else if !ok || spec.App == "" {
		return spec, false, errors.New("missing required parameter \"app\"")
	}
	if spec.Version, _, err = one("version"); err != nil {
		return spec, false, err
	}
	if spec.Platform, _, err = one("platform"); err != nil {
		return spec, false, err
	}
	if v, ok, e := one("p"); e != nil {
		return spec, false, e
	} else if ok {
		n, e := strconv.Atoi(v)
		if e != nil || n < 1 {
			return spec, false, fmt.Errorf("bad processor count %q (want a positive integer)", v)
		}
		spec.NumProcs = n
	}
	if v, ok, e := one("scale"); e != nil {
		return spec, false, e
	} else if ok {
		f, e := strconv.ParseFloat(v, 64)
		if e != nil || f <= 0 {
			return spec, false, fmt.Errorf("bad scale %q (want a positive number)", v)
		}
		spec.Scale = f
	}
	parseBool := func(k string) (bool, error) {
		v, ok, e := one(k)
		if e != nil || !ok {
			return false, e
		}
		b, e := strconv.ParseBool(v)
		if e != nil {
			return false, fmt.Errorf("bad boolean %q for %q", v, k)
		}
		return b, nil
	}
	if speedup, err = parseBool("speedup"); err != nil {
		return spec, false, err
	}
	if spec.FreeCSFaults, err = parseBool("freecs"); err != nil {
		return spec, false, err
	}
	if spec.Check, err = parseBool("check"); err != nil {
		return spec, false, err
	}
	return spec, speedup, nil
}

// ForwardHeader marks a request that already took its one cluster hop.
// The owner that receives it always computes locally — even if its own
// ring view disagrees about ownership mid-membership-change — so a
// forwarding loop is impossible by construction.
const ForwardHeader = "X-Cluster-Forwarded"

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost {
		s.handleRunBatch(w, r)
		return
	}
	spec, speedup, err := parseRunSpec(r.URL.Query())
	if err != nil {
		http.Error(w, "serve: "+err.Error(), http.StatusBadRequest)
		return
	}
	forwarded := r.Header.Get(ForwardHeader) != ""
	s.run(w, r, !forwarded, func(ctx context.Context) ([]byte, string, int) {
		return s.routeRun(ctx, spec, speedup, forwarded)
	})
}

// routeRun serves one cell, cluster-aware: cells owned by a live peer are
// forwarded there (unless this request is itself a forward), anything
// else — self-owned cells, failed forwards — is computed locally. The
// returned bytes are identical either way: the owner runs the very same
// executeRun this node would. Deterministic forwarded responses are kept
// in fwdCache so only the first request for a non-owned cell pays the hop.
func (s *Server) routeRun(ctx context.Context, spec harness.Spec, speedup, forwarded bool) ([]byte, string, int) {
	if c := s.cluster; c != nil && !forwarded {
		key := spec.MemoKey()
		if speedup {
			key += "|speedup"
		}
		if owner := c.Owner(spec.MemoKey()); owner != "" && owner != c.Self() {
			s.fwdMu.RLock()
			e, hit := s.fwdCache[key]
			s.fwdMu.RUnlock()
			if hit {
				s.mx.forwardHits.Add(1)
				return e.body, e.contentType, e.code
			}
			body, ct, code, err := s.forwardRun(ctx, owner, specQuery(spec, speedup))
			if err == nil {
				s.mx.forwards.Add(1)
				// 200 results and 422 structured failures are deterministic
				// for the cell; keep the bytes so the next request for it
				// is local. Transient statuses (429, 400) are not cached.
				if code == http.StatusOK || code == http.StatusUnprocessableEntity {
					s.fwdMu.Lock()
					s.fwdCache[key] = fwdEntry{body, ct, code}
					s.fwdMu.Unlock()
				}
				return body, ct, code
			}
			if ctx.Err() != nil {
				// The client is gone (deadline/disconnect): don't burn a
				// local simulation nobody will read — the owner is still
				// computing and caching it.
				return []byte("serve: forward canceled: " + err.Error() + "\n"),
					"text/plain; charset=utf-8", http.StatusGatewayTimeout
			}
			s.mx.fallbacks.Add(1)
		}
	}
	return s.executeRun(spec, speedup)
}

// forwardRun proxies one cell request to its owner. A transport error or
// an owner-side 5xx reports failure so the caller can fall back locally;
// semantic statuses (200, 422 structured failures, 4xx including an
// overloaded owner's 429 with its Retry-After hint) pass through.
func (s *Server) forwardRun(ctx context.Context, owner string, query url.Values) (body []byte, contentType string, code int, err error) {
	u := cluster.BaseURL(owner) + "/run?" + query.Encode()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, "", 0, err
	}
	req.Header.Set(ForwardHeader, s.cluster.Self())
	resp, err := s.fwdClient.Do(req)
	if err != nil {
		return nil, "", 0, err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", 0, err
	}
	if resp.StatusCode >= 500 {
		return nil, "", 0, fmt.Errorf("owner %s: HTTP %d", owner, resp.StatusCode)
	}
	return body, resp.Header.Get("Content-Type"), resp.StatusCode, nil
}

// specQuery renders a spec back into canonical /run query parameters, so
// a forwarded request parses into the identical spec on the owner (and
// therefore into byte-identical response bytes — RunJSON applies the same
// defaults on both sides).
func specQuery(spec harness.Spec, speedup bool) url.Values {
	q := url.Values{}
	q.Set("app", spec.App)
	if spec.Version != "" {
		q.Set("version", spec.Version)
	}
	if spec.Platform != "" {
		q.Set("platform", spec.Platform)
	}
	if spec.NumProcs != 0 {
		q.Set("p", strconv.Itoa(spec.NumProcs))
	}
	if spec.Scale != 0 {
		q.Set("scale", strconv.FormatFloat(spec.Scale, 'g', -1, 64))
	}
	if spec.FreeCSFaults {
		q.Set("freecs", "1")
	}
	if spec.Check {
		q.Set("check", "1")
	}
	if speedup {
		q.Set("speedup", "1")
	}
	return q
}

// executeRun produces the exact bytes `svmsim -json` prints for spec: the
// indented RunJSON document and a trailing newline (or the structured
// RunErrorJSON document for a deterministic failure, with status 422).
func (s *Server) executeRun(spec harness.Spec, speedup bool) (body []byte, contentType string, code int) {
	return CellBody(s.memo, spec, speedup)
}

// CellBody renders one cell through a memo into the canonical single-cell
// document: the exact bytes `svmsim -json` prints, trailing newline
// included, with code 200 — or the structured RunErrorJSON document with
// code 422 for a deterministic failure. It is the one place those bytes
// are produced, shared by the HTTP handlers, `svmsim -json` and
// internal/campaign's local execution path, so a campaign's result
// fingerprints are identical whether a cell was computed in-process or
// fetched from a serve fleet. The speedup denominator is spec.Baseline().
func CellBody(memo *harness.Memo, spec harness.Spec, speedup bool) (body []byte, contentType string, code int) {
	jsonBody := func(b []byte, jerr error, code int) ([]byte, string, int) {
		if jerr != nil {
			return []byte("serve: " + jerr.Error() + "\n"), "text/plain; charset=utf-8", http.StatusInternalServerError
		}
		return append(b, '\n'), "application/json", code
	}
	run, err := memo.Run(spec)
	if err != nil {
		b, jerr := harness.RunErrorJSON(spec, err)
		return jsonBody(b, jerr, http.StatusUnprocessableEntity)
	}
	var spFactor float64
	if speedup {
		baseSpec := spec.Baseline()
		base, berr := memo.Run(baseSpec)
		if berr != nil {
			b, jerr := harness.RunErrorJSON(baseSpec, berr)
			return jsonBody(b, jerr, http.StatusUnprocessableEntity)
		}
		spFactor = float64(base.EndTime) / float64(run.EndTime)
	}
	b, jerr := harness.RunJSON(spec, run, spFactor)
	return jsonBody(b, jerr, http.StatusOK)
}

func (s *Server) handleFigures(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	for k := range q {
		switch k {
		case "fig", "p", "scale", "check":
		default:
			http.Error(w, "serve: unknown parameter \""+k+"\"", http.StatusBadRequest)
			return
		}
	}
	figID := q.Get("fig")
	if figID == "" {
		http.Error(w, "serve: missing required parameter \"fig\" (fig2..fig17 or headline)", http.StatusBadRequest)
		return
	}
	np := 16
	if v := q.Get("p"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			http.Error(w, "serve: bad processor count "+strconv.Quote(v), http.StatusBadRequest)
			return
		}
		np = n
	}
	scale := 1.0
	if v := q.Get("scale"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f <= 0 {
			http.Error(w, "serve: bad scale "+strconv.Quote(v), http.StatusBadRequest)
			return
		}
		scale = f
	}
	check := false
	if v := q.Get("check"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			http.Error(w, "serve: bad boolean for \"check\"", http.StatusBadRequest)
			return
		}
		check = b
	}
	var fig harness.Figure
	if figID != "headline" {
		f, err := harness.FindFigure(figID)
		if err != nil {
			http.Error(w, "serve: "+err.Error(), http.StatusBadRequest)
			return
		}
		fig = f
	}

	// A figures request occupies one admission slot but fans its cells out
	// over its own pool, bounded by the server's inflight budget. Figure
	// cells are never cluster-routed: the matrix is a local batch
	// computation, and its cells still land in the shared memo/store.
	s.run(w, r, true, func(context.Context) ([]byte, string, int) {
		runner := harness.NewRunnerWith(np, scale, s.memo)
		runner.Check = check
		render := harness.HeadlineSpeedups
		if figID != "headline" {
			render = func(r *harness.Runner) (string, error) {
				body, err := fig.Run(r)
				return fmt.Sprintf("== %s: %s ==\n%s", fig.ID, fig.Title, body), err
			}
		}
		out, err := runner.Render(s.cfg.MaxInflight, render)
		if err != nil {
			return []byte("serve: " + err.Error() + "\n"), "text/plain; charset=utf-8", http.StatusInternalServerError
		}
		return []byte(out), "text/plain; charset=utf-8", http.StatusOK
	})
}

// Drain flips /healthz to 503 so cluster peers (and any real load
// balancer) stop routing here. Call it when SIGTERM shutdown begins,
// before http.Server.Shutdown: in-flight and still-arriving requests are
// served normally through the drain window, but no new traffic is steered
// in. Irreversible for the life of the Server.
func (s *Server) Drain() { s.mx.draining.Store(true) }

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool { return s.mx.draining.Load() }

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.mx.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	cs := s.memo.Stats()
	extra := map[string]uint64{
		"svmserve_cache_memo_hits_total":    cs.MemoHits,
		"svmserve_cache_memo_misses_total":  cs.MemoMisses,
		"svmserve_cache_store_hits_total":   cs.StoreHits,
		"svmserve_cache_store_misses_total": cs.StoreMisses,
		"svmserve_simulations_total":        cs.Executions,
	}
	if st := s.memo.Store; st != nil {
		ss := st.Stats()
		extra["svmstore_hits_total"] = ss.Hits
		extra["svmstore_misses_total"] = ss.Misses
		extra["svmstore_corrupt_total"] = ss.Corrupt
		extra["svmstore_puts_total"] = ss.Puts
		extra["svmstore_gc_runs_total"] = ss.GCRuns
		extra["svmstore_gc_evicted_total"] = ss.GCEvicted
	}
	var health map[string]bool
	if s.cluster != nil {
		health = s.cluster.Health()
	}
	var b strings.Builder
	s.mx.render(&b, extra, health)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, b.String())
}
