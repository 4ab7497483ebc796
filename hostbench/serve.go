package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/harness"
	"repro/internal/server"
	"repro/internal/store"
)

// The serve-fleet workload replays the repository's own serving benchmark,
// the cmd/loadgen protocol behind BENCH_serve.json and the fleet tables of
// EXPERIMENTS.md, on the irregular campaign's cells at P <= 4. Each round
// starts fleetNodes server.Server nodes in-process on loopback, joined by
// cluster ownership routing, each with an empty store of its own. A closed
// loop of at most nproc clients then sends GET /run in three phases:
//
//   - cold: coldReqs requests on the empty stores (cold simulations
//     that write the store, one-hop forwards, memo and forward-cache hits);
//   - restart: every node gets a new server, memo and forward cache over
//     its populated store, as in EXPERIMENTS.md's "server restarted on the
//     populated store";
//   - warm: warmReqs requests (store reads, then memo and
//     forward-cache hits, and cold simulations of cells first asked for).
//
// As in loadgen, cell popularity is Zipf over the cell list, the first
// cell the most popular, and requests go round-robin across the nodes.
const (
	fleetNodes = 3     // BENCH_serve.json's fleet
	zipfS      = 1.2   // loadgen -zipf 1.2 in BENCH_serve.json and the CI cluster smoke
	coldReqs   = 3000  // BENCH_serve.json "cold": requests on three empty stores
	warmReqs   = 50000 // BENCH_serve.json "warm": requests on the same stores
	// spanHeader carries the client request's span id to the entry node.
	spanHeader = "X-Hostbench-Span"
)

// fleetCells are the cells the clients ask for, with their committed
// references and /run queries.
type fleetCells struct {
	cells   []campaign.Cell
	refs    map[string]reference
	queries []string          // canonical /run query of each cell
	keyOf   map[string]string // query -> memo key
}

func loadFleetCells() (*fleetCells, error) {
	const name = "irregular"
	cells, err := loadCells(name, func(s *campaign.Spec) { s.Procs = []int{1, 2, 4} })
	if err != nil {
		return nil, err
	}
	refs, err := loadReferences(name, cells)
	if err != nil {
		return nil, err
	}
	fc := &fleetCells{cells: cells, refs: refs, keyOf: map[string]string{}}
	for _, c := range cells {
		q := url.Values{}
		q.Set("app", c.Spec.App)
		q.Set("version", c.Spec.Version)
		q.Set("platform", c.Spec.Platform)
		q.Set("p", strconv.Itoa(c.Spec.NumProcs))
		q.Set("scale", strconv.FormatFloat(c.Spec.Scale, 'g', -1, 64))
		fc.queries = append(fc.queries, q.Encode())
		fc.keyOf[q.Encode()] = c.Key
	}
	return fc, nil
}

type fleetNode struct {
	addr   string
	st     *store.Store
	dir    string
	srv    atomic.Pointer[server.Server] // the running server
	owner  *cluster.Cluster              // ownership routing, for verification
	srvs   []*server.Server              // every server started, for counters
	memos  []*harness.Memo               // their memos
	hs     *http.Server
	served sync.WaitGroup
}

// fleet is one round's set of nodes.
type fleet struct {
	*fleetCells
	addrs  []string
	nodes  []*fleetNode
	client *http.Client

	tr   *tracer // nil when untraced
	open *openSpans
	log  *execLog
}

// newFleet starts fleetNodes nodes with empty stores.
func newFleet(fc *fleetCells, tr *tracer) (*fleet, error) {
	f := &fleet{
		fleetCells: fc, tr: tr, open: &openSpans{},
		client: &http.Client{Transport: &http.Transport{MaxIdleConns: 64, MaxIdleConnsPerHost: 16}},
	}
	f.log = newExecLog(tr, f.open)
	var lns []net.Listener
	for range fleetNodes {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeAll(lns)
			return nil, err
		}
		lns = append(lns, ln)
		f.addrs = append(f.addrs, ln.Addr().String())
	}
	for i, ln := range lns {
		n := &fleetNode{addr: f.addrs[i]}
		var err error
		if n.dir, err = os.MkdirTemp("", "hostbench-store-"); err == nil {
			n.st, err = store.Open(n.dir)
		}
		if err == nil {
			err = f.start(n)
		}
		if err != nil {
			os.RemoveAll(n.dir)
			closeAll(lns[i:])
			f.close()
			return nil, err
		}
		n.hs = &http.Server{Handler: f.handler(n)}
		n.served.Add(1)
		go func() {
			defer n.served.Done()
			n.hs.Serve(ln)
		}()
		f.nodes = append(f.nodes, n)
	}
	return f, nil
}

// start gives node n a new server with a new memo over its store and a new
// forward cache.
func (f *fleet) start(n *fleetNode) error {
	c, err := cluster.New(cluster.Config{Self: n.addr, Peers: f.addrs})
	if err != nil {
		return err
	}
	memo := harness.NewMemo(n.st)
	memo.Exec = f.log.hook(n.addr + " ")
	srv := server.New(server.Config{Memo: memo, Cluster: c})
	if n.owner == nil {
		n.owner = c
	}
	n.srvs, n.memos = append(n.srvs, srv), append(n.memos, memo)
	n.srv.Store(srv)
	return nil
}

// restart starts every node anew over its populated store. No request may
// be in flight.
func (f *fleet) restart() error {
	for _, n := range f.nodes {
		if err := f.start(n); err != nil {
			return err
		}
	}
	return nil
}

func closeAll(lns []net.Listener) {
	for _, ln := range lns {
		ln.Close()
	}
}

func (f *fleet) node(addr string) *fleetNode {
	for _, n := range f.nodes {
		if n.addr == addr {
			return n
		}
	}
	return f.nodes[0]
}

// close stops every node, waits for its serve loop to end, and removes
// its store.
func (f *fleet) close() {
	f.client.CloseIdleConnections()
	for _, n := range f.nodes {
		n.hs.Close()
		n.served.Wait()
		os.RemoveAll(n.dir)
	}
}

// handler calls the node's running server; when traced it records a span
// per call, parented to the client request (entry calls) or to the entry
// node's open span for the same cell (forwarded calls).
func (f *fleet) handler(n *fleetNode) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		srv := n.srv.Load()
		if f.tr == nil {
			srv.ServeHTTP(w, r)
			return
		}
		key := f.keyOf[r.URL.RawQuery]
		name, parent := "server.ServeHTTP", 0
		if from := r.Header.Get(server.ForwardHeader); from != "" {
			name, parent = "server.ServeHTTP.forwarded", f.open.top(from+" "+key)
		} else {
			parent, _ = strconv.Atoi(r.Header.Get(spanHeader))
		}
		id := f.tr.begin(name, parent)
		f.open.push(n.addr+" "+key, id)
		srv.ServeHTTP(w, r)
		f.open.pop(n.addr+" "+key, id)
		f.tr.end(id)
	})
}

// loadResult is what the clients saw during one or more load phases.
type loadResult struct {
	win       window          // wall, process CPU and stolen time of the load
	latencies []time.Duration // successful requests
	refs      uint64          // simulated references of the delivered cells
	docs      map[string]cellDoc
}

func (lr *loadResult) add(o loadResult) {
	lr.win.add(o.win)
	lr.latencies = append(lr.latencies, o.latencies...)
	lr.refs += o.refs
	if lr.docs == nil {
		lr.docs = map[string]cellDoc{}
	}
	for k, d := range o.docs {
		lr.docs[k] = d
	}
}

// load sends n requests from a closed loop of at most nproc clients, each
// sending its share. Client c draws cells from a Zipf stream seeded by
// (seed, stream+c) and sends its j-th request to node (c+j) mod nodes.
// Every response must be a 200 whose body matches the committed journal;
// anything else counts as a failure in res.
func (f *fleet) load(seed, stream uint64, n int, res *result) loadResult {
	lr := loadResult{docs: map[string]cellDoc{}}
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	clients := workers()
	start := readClocks()
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, stream+uint64(c)))
			zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(f.cells)-1))
			verified := map[int][]byte{}
			docs := map[string]cellDoc{}
			var lats []time.Duration
			var refs uint64
			var errs []string
			for j := c; j < n; j += clients {
				cell := int(zipf.Uint64())
				body, lat, err := f.get(f.nodes[j%len(f.nodes)], cell)
				key := f.cells[cell].Key
				if err == nil && !bytes.Equal(body, verified[cell]) {
					var doc cellDoc
					if doc, err = checkBody(key, body, f.refs[key]); err == nil {
						verified[cell], docs[key] = body, doc
					}
				}
				if err != nil {
					errs = append(errs, err.Error())
					continue
				}
				lats = append(lats, lat)
				refs += docs[key].Counters.Reads + docs[key].Counters.Writes
			}
			mu.Lock()
			defer mu.Unlock()
			res.attempted += len(lats) + len(errs)
			for _, e := range errs {
				res.fail(e)
			}
			lr.latencies = append(lr.latencies, lats...)
			lr.refs += refs
			for k, d := range docs {
				lr.docs[k] = d
			}
		}()
	}
	wg.Wait()
	lr.win = start.since()
	return lr
}

// get sends one GET /run for cell to node n and returns the body and the
// request's latency.
func (f *fleet) get(n *fleetNode, cell int) ([]byte, time.Duration, error) {
	req, err := http.NewRequest(http.MethodGet, "http://"+n.addr+"/run?"+f.queries[cell], nil)
	if err != nil {
		return nil, 0, err
	}
	id := f.tr.begin("client.request", 0)
	defer f.tr.end(id)
	if id != 0 {
		req.Header.Set(spanHeader, strconv.Itoa(id))
	}
	start := time.Now()
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(start)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("%s: status %d: %s", f.cells[cell].Key, resp.StatusCode, firstLine(body))
	}
	return body, d, err
}

// fleetCounters are the fleet's own counters.
type fleetCounters struct {
	memo                             harness.CacheStats
	store                            store.Stats
	forwards, forwardHits, fallbacks uint64
	sims, uniqueSims                 int
}

func (fc *fleetCounters) add(o fleetCounters) {
	fc.memo.MemoHits += o.memo.MemoHits
	fc.memo.MemoMisses += o.memo.MemoMisses
	fc.memo.StoreHits += o.memo.StoreHits
	fc.memo.StoreMisses += o.memo.StoreMisses
	fc.memo.Executions += o.memo.Executions
	fc.store.Hits += o.store.Hits
	fc.store.Misses += o.store.Misses
	fc.store.Puts += o.store.Puts
	fc.forwards += o.forwards
	fc.forwardHits += o.forwardHits
	fc.fallbacks += o.fallbacks
	fc.sims += o.sims
	fc.uniqueSims += o.uniqueSims
}

// counters sums the memo and store counters of every server each node has
// run, and the cluster counters each server exports on /metrics.
func (f *fleet) counters() fleetCounters {
	var fc fleetCounters
	for _, n := range f.nodes {
		for _, m := range n.memos {
			fc.memo.MemoHits += m.Stats().MemoHits
			fc.memo.MemoMisses += m.Stats().MemoMisses
			fc.memo.StoreHits += m.Stats().StoreHits
			fc.memo.StoreMisses += m.Stats().StoreMisses
			fc.memo.Executions += m.Stats().Executions
		}
		s := n.st.Stats()
		fc.store.Hits += s.Hits
		fc.store.Misses += s.Misses
		fc.store.Puts += s.Puts
		for _, srv := range n.srvs {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
			sc := bufio.NewScanner(rec.Body)
			for sc.Scan() {
				name, v, ok := strings.Cut(sc.Text(), " ")
				u, perr := strconv.ParseUint(v, 10, 64)
				if !ok || perr != nil {
					continue
				}
				switch name {
				case "svmserve_cluster_forward_total":
					fc.forwards += u
				case "svmserve_cluster_forward_cache_hits_total":
					fc.forwardHits += u
				case "svmserve_cluster_fallback_total":
					fc.fallbacks += u
				}
			}
		}
	}
	fc.sims, fc.uniqueSims = f.log.executions()
	return fc
}

// verifyStores reads every cell the fleet simulated back from its owner's
// store and returns the timed store.Get calls. A missing entry or a wrong
// end time is a failure in res. With rewrite set it also writes each
// result back (an idempotent overwrite) and returns the timed store.Put
// calls.
func (f *fleet) verifyStores(res *result, rewrite bool) (gets, puts []time.Duration) {
	f.log.mu.Lock()
	keys := make([]string, 0, len(f.log.runs))
	for k := range f.log.runs {
		keys = append(keys, k)
	}
	f.log.mu.Unlock()
	sort.Strings(keys)
	for _, key := range keys {
		owner := f.node(f.nodes[0].owner.Owner(key))
		start := time.Now()
		r, ok := owner.st.Get(key)
		gets = append(gets, time.Since(start))
		switch {
		case !ok:
			res.broken = append(res.broken, key+": simulated but not in its owner's store")
			continue
		case r.Run == nil || r.Run.EndTime != f.refs[key].End:
			res.broken = append(res.broken, key+": stored result differs from the committed journal")
			continue
		}
		if rewrite {
			start := time.Now()
			err := owner.st.Put(key, r)
			puts = append(puts, time.Since(start))
			if err != nil {
				res.broken = append(res.broken, key+": store.Put: "+err.Error())
			}
		}
	}
	return gets, puts
}

// checkFleet adds the fleet invariants to res: one simulation per unique
// cell fleet-wide, and no forward fell back to local compute.
func checkFleet(res *result, fc fleetCounters) {
	if fc.sims != fc.uniqueSims {
		res.broken = append(res.broken, fmt.Sprintf("%d simulations for %d unique cells", fc.sims, fc.uniqueSims))
	}
	if fc.fallbacks != 0 {
		res.broken = append(res.broken, fmt.Sprintf("%d cluster fallbacks", fc.fallbacks))
	}
}

// roundResult is what one or more rounds produced.
type roundResult struct {
	load       loadResult
	counters   fleetCounters
	work       simWork // simulated work of the cells the fleet simulated
	gets, puts []time.Duration
	rounds     int
}

// runRound runs round r on a fresh fleet: cold phase, restart, warm phase,
// then the fleet invariants and the store check.
func runRound(fc *fleetCells, seed uint64, r int, tr *tracer, res *result) (roundResult, error) {
	f, err := newFleet(fc, tr)
	if err != nil {
		return roundResult{}, err
	}
	defer f.close()
	// Client streams are numbered per round and phase, so every round and
	// phase draws its own requests.
	base := uint64(r) * 2 * uint64(workers())
	rr := roundResult{rounds: 1}
	cold := f.load(seed, base, coldReqs, res)
	if err := f.restart(); err != nil {
		return rr, err
	}
	warm := f.load(seed, base+uint64(workers()), warmReqs, res)
	rr.load.add(cold)
	rr.load.add(warm)
	rr.counters = f.counters()
	checkFleet(res, rr.counters)
	rr.gets, rr.puts = f.verifyStores(res, tr != nil)
	f.log.mu.Lock()
	for key := range f.log.runs {
		rr.work.add(rr.load.docs[key])
	}
	f.log.mu.Unlock()
	return rr, nil
}

// runRounds runs whole rounds, numbered from 0: rounds until their load
// time reaches budget, or exactly n rounds when n > 0.
func runRounds(fc *fleetCells, seed uint64, budget time.Duration, n int, tr *tracer, res *result) (roundResult, error) {
	var all roundResult
	for r := 0; ; r++ {
		rr, err := runRound(fc, seed, r, tr, res)
		if err != nil {
			return all, err
		}
		all.load.add(rr.load)
		all.counters.add(rr.counters)
		all.work.addWork(rr.work)
		all.gets = append(all.gets, rr.gets...)
		all.puts = append(all.puts, rr.puts...)
		all.rounds++
		if n > 0 && all.rounds == n || n <= 0 && all.load.win.wall >= budget {
			return all, nil
		}
	}
}

// addTierShares prints each tier's share of the requests: memo hits,
// forward-cache hits, store reads, one-hop forwards and cold simulations
// (a forward also ends in one of the owner's tiers).
func addTierShares(res *result, rr roundResult) {
	reqs := uint64(len(rr.load.latencies))
	for _, t := range []struct {
		name string
		n    uint64
	}{
		{"tier.memo_hit_share", rr.counters.memo.MemoHits},
		{"tier.forward_cache_hit_share", rr.counters.forwardHits},
		{"tier.store_read_share", rr.counters.memo.StoreHits},
		{"tier.forward_share", rr.counters.forwards},
		{"tier.cold_sim_share", rr.counters.memo.Executions},
	} {
		res.note(t.name, frac(t.n, reqs), "frac", int(t.n))
	}
}

func runServeFleet(o options) (*result, error) {
	budget := time.Duration(o.seconds * float64(time.Second))
	res := &result{}
	f0, setup, err := timeSetup(setupReps, func() (*fleet, error) {
		fc, err := loadFleetCells()
		if err != nil {
			return nil, err
		}
		return newFleet(fc, nil)
	}, (*fleet).close)
	if err != nil {
		return nil, err
	}
	f0.close()
	fc := f0.fleetCells
	if !o.trace {
		rr, err := runRounds(fc, o.seed, budget, 0, nil, res)
		if err != nil {
			return nil, err
		}
		ms := millis(rr.load.latencies)
		n := len(ms)
		addEndToEnd(res, setup, n, rr.load.refs, rr.load.win, ms)
		res.note("latency_p99_ms", quantile(ms, 0.99), "ms", n)
		res.note("rounds", float64(rr.rounds), "count", 0)
		addTierShares(res, rr)
		return res, nil
	}

	// Traced run: untraced rounds for half the budget, then as many rounds
	// with the same request sequences under spans and a CPU profile.
	// Per-layer counts are per round.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	plain, err := runRounds(fc, o.seed, budget/2, 0, nil, res)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	rr, err := runRounds(fc, o.seed, 0, plain.rounds, tr, res)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	if rr.work != plain.work {
		res.broken = append(res.broken, fmt.Sprintf("traced rounds simulated %+v, untraced %+v", rr.work, plain.work))
	}
	layerNs, err := foldProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	addLayerMetrics(res, layerNs, rr.work, 1)
	k := float64(rr.rounds)
	c := rr.counters
	spans := tr.spans
	self := selfTimes(spans)
	handler := millis(append(durations(spans, "server.ServeHTTP"), durations(spans, "server.ServeHTTP.forwarded")...))
	plainRate := float64(len(plain.load.latencies)) / plain.load.win.cpu.Seconds()
	tracedRate := float64(len(rr.load.latencies)) / rr.load.win.cpu.Seconds()
	res.add("runtime.alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/1e6/float64(plain.rounds), "MB", 0)
	res.add("runtime.gc_cycles", float64(after.NumGC-before.NumGC)/float64(plain.rounds), "count", 0)
	res.add("harness.execute_ms_total", sumMillis(durations(spans, "harness.Execute"))/k, "ms", 0)
	res.add("server.render_ms_total", float64((self["server.ServeHTTP"]+self["server.ServeHTTP.forwarded"]).Nanoseconds())/1e6/k, "ms", 0)
	res.add("trace.events", 0, "count", 0)
	res.add("trace.overhead_frac", plainRate/tracedRate-1, "frac", 0)
	res.add("server.handler_ms_p50", quantile(handler, 0.5), "ms", len(handler))
	res.add("server.handler_ms_p99", quantile(handler, 0.99), "ms", len(handler))
	res.add("harness.memo_hit_frac", frac(c.memo.MemoHits, c.memo.MemoHits+c.memo.MemoMisses), "frac", 0)
	res.add("harness.executions", float64(c.sims)/k, "count", 0)
	res.add("store.hit_frac", frac(c.store.Hits, c.store.Hits+c.store.Misses), "frac", 0)
	res.add("store.puts", float64(c.store.Puts)/k, "count", 0)
	res.add("store.get_us_p50", quantile(micros(rr.gets), 0.5), "us", len(rr.gets))
	res.add("store.put_us_p50", quantile(micros(rr.puts), 0.5), "us", len(rr.puts))
	res.add("cluster.forwards", float64(c.forwards)/k, "count", 0)
	res.add("cluster.forward_cache_hits", float64(c.forwardHits)/k, "count", 0)
	res.add("cluster.fallbacks", float64(c.fallbacks), "count", 0)
	res.add("cluster.sims_per_unique_cell", frac(uint64(c.sims), uint64(c.uniqueSims)), "sims/cell", 0)
	rr.work.addMetrics(res, k)
	res.note("rounds", k, "count", 0)
	addTierShares(res, rr)
	return res, writeTraceFiles(o, spans, prof.Bytes())
}

func micros(ds []time.Duration) []float64 {
	out := millis(ds)
	for i := range out {
		out[i] *= 1e3
	}
	return out
}
