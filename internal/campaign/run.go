package campaign

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/harness"
	"repro/internal/server"
)

// Outcome is one executed cell attempt's final result, as reported by an
// Executor. Exactly one of Body / Err is meaningful: Body carries the
// canonical single-cell document bytes (200 results and 422 failure
// documents alike), Err a non-document failure (a cell-level 400 from the
// batch endpoint, or a transient failure that exhausted its retries).
type Outcome struct {
	Cell     Cell
	Code     int    // HTTP-style: 200, 422, 400; 0 with Err set for transient
	Body     []byte // canonical document bytes, trailing newline included
	Err      string // non-document failure message
	Attempts int    // execution attempts (>1 after fleet retries)
}

// Executor executes cells, invoking emit exactly once per cell it
// completes (from any goroutine). It returns when every cell has been
// emitted or ctx is canceled; cells not emitted before cancellation stay
// pending — the journal never sees them, so a resume picks them up.
type Executor interface {
	Execute(ctx context.Context, cells []Cell, emit func(Outcome))
}

// Local executes cells in-process through a memo: a bounded worker pool
// of single-threaded simulations, the same engine figures and sweep use.
type Local struct {
	Memo *harness.Memo
	// Workers bounds concurrent simulations (GOMAXPROCS when <= 0).
	Workers int
}

// Execute runs the cells through the memo, producing for each the exact
// bytes a serve fleet would return for it (server.CellBody), so local and
// fleet campaigns fingerprint identically.
func (l *Local) Execute(ctx context.Context, cells []Cell, emit func(Outcome)) {
	// Once ctx is done, in-flight cells finish and are journaled; the
	// rest stay pending.
	harness.ForEach(ctx, l.Workers, len(cells), func(i int) {
		body, _, code := server.CellBody(l.Memo, cells[i].Spec, false)
		emit(Outcome{Cell: cells[i], Code: code, Body: body, Attempts: 1})
	})
}

// fingerprint names a cell's document bytes: first 8 bytes of SHA-256,
// hex — the value local/fleet identity is asserted on.
func fingerprint(body []byte) string {
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:8])
}

// cellDocument is the subset of the single-cell JSON document the journal
// needs: the simulated end time of a result, or the structured error of a
// 422 failure document.
type cellDocument struct {
	EndTime uint64 `json:"end_time"`
	Error   *struct {
		Kind    string `json:"kind"`
		Message string `json:"message"`
	} `json:"error"`
}

// entryFor derives the journal entry for an outcome. Everything in the
// entry comes from the document bytes (not from in-process error values),
// so local and fleet execution journal identically.
func entryFor(o Outcome) Entry {
	e := Entry{Key: o.Cell.Key, Attempts: o.Attempts}
	if o.Body == nil {
		e.Status = "failed"
		e.Msg = firstLine(o.Err)
		if o.Code == http.StatusBadRequest {
			e.Kind = "request"
		} else {
			e.Kind = KindTransient
		}
		return e
	}
	e.FP = fingerprint(o.Body)
	var doc cellDocument
	if err := json.Unmarshal(o.Body, &doc); err != nil {
		// A document that does not parse is not a cell result; treat it
		// like a transport failure so the cell is retried, never settled
		// on garbage.
		e.Status = "failed"
		e.Kind = KindTransient
		e.Msg = firstLine("undecodable cell document: " + err.Error())
		e.FP = ""
		return e
	}
	if doc.Error != nil {
		e.Status = "failed"
		e.Kind = doc.Error.Kind
		e.Msg = firstLine(doc.Error.Message)
		return e
	}
	e.Status = "done"
	e.End = doc.EndTime
	return e
}

// firstLine truncates multi-line failure text for one-line journal and
// report rows.
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i] + " ..."
	}
	return s
}

// Runner executes a campaign's pending cells through an executor,
// journaling each completion. Wire OnEntry for progress reporting.
type Runner struct {
	// Name identifies the campaign (Spec.Name for spec-driven runs).
	Name string
	// Cells is the full expanded manifest, memo-key-ordered.
	Cells []Cell
	// Journal, when non-nil, is consulted for already-complete cells and
	// appended to as cells finish. A nil journal runs everything fresh
	// and keeps results only in memory (cmd/sweep).
	Journal *Journal
	// Exec runs the pending cells (Local or Fleet).
	Exec Executor
	// OnEntry, when non-nil, is called after each cell is journaled —
	// from executor goroutines, so it must be safe for concurrent use.
	OnEntry func(Cell, Entry)
	// StopAfter, when positive, is the run's budget of new cells — the
	// deterministic "kill it mid-flight" used by the resume tests and the
	// CI smoke. Only the first StopAfter pending cells (manifest order)
	// reach the executor, so at most StopAfter new cells are journaled and
	// counted, and the rest stay pending for the resume. The run is
	// Interrupted exactly when StopAfter is less than the pending count,
	// on every executor.
	StopAfter int
}

// Report is the final state of one Run call.
type Report struct {
	Name   string
	Digest string
	// Cells is the full manifest; Entries holds the settled state of
	// every completed cell (journal-resumed and newly executed).
	Cells   []Cell
	Entries map[string]Entry
	// Resumed counts cells already complete in the journal; Executed
	// counts cells this run completed; Interrupted reports whether the
	// run stopped (ctx canceled or the StopAfter budget spent) with cells
	// still pending.
	Resumed     int
	Executed    int
	Interrupted bool
}

// Failed returns the failed cells' entries, sorted by key.
func (rep *Report) Failed() []Entry {
	var out []Entry
	for _, c := range rep.Cells {
		if e, ok := rep.Entries[c.Key]; ok && e.Status == "failed" {
			out = append(out, e)
		}
	}
	return out
}

// ErrStopped is returned by Run when the StopAfter budget left cells
// pending.
var ErrStopped = errors.New("campaign: stopped at the StopAfter budget")

// Run expands nothing and retries nothing itself: it skips cells the
// journal already settled, hands the rest to the executor, and journals
// completions as they arrive. When interrupted it returns ctx.Err, or
// ErrStopped when the StopAfter budget ended the run; the report is valid
// either way.
func (r *Runner) Run(ctx context.Context) (*Report, error) {
	rep := &Report{
		Name:    r.Name,
		Digest:  Digest(r.Cells),
		Cells:   r.Cells,
		Entries: map[string]Entry{},
	}
	var pending []Cell
	if r.Journal != nil {
		journaled := r.Journal.Entries()
		for _, c := range r.Cells {
			if e, ok := journaled[c.Key]; ok && e.Complete() {
				rep.Entries[c.Key] = e
				rep.Resumed++
				continue
			}
			pending = append(pending, c)
		}
	} else {
		pending = r.Cells
	}
	if len(pending) == 0 {
		return rep, nil
	}
	budgeted := pending
	if r.StopAfter > 0 && r.StopAfter < len(pending) {
		budgeted = pending[:r.StopAfter]
	}

	var mu sync.Mutex
	emit := func(o Outcome) {
		e := entryFor(o)
		mu.Lock()
		if r.Journal != nil {
			if err := r.Journal.Append(e); err != nil {
				// A journal write failure (full disk, removed file) costs
				// resumability, not results: the entry still counts in
				// this run's report.
				fmt.Fprintln(os.Stderr, "campaign:", err)
			}
		}
		rep.Entries[o.Cell.Key] = e
		rep.Executed++
		mu.Unlock()
		if r.OnEntry != nil {
			r.OnEntry(o.Cell, e)
		}
	}
	r.Exec.Execute(ctx, budgeted, emit)

	mu.Lock()
	rep.Interrupted = rep.Executed < len(pending)
	mu.Unlock()
	switch {
	case !rep.Interrupted:
		return rep, nil
	case ctx.Err() != nil:
		return rep, ctx.Err()
	default:
		return rep, ErrStopped
	}
}

// Manifest renders the campaign's deterministic summary: one line per
// manifest cell in memo-key order with its status and result fingerprint.
// Two runs of the same spec over the same simulator build — interrupted
// and resumed any number of times, locally or against a fleet — produce
// byte-identical manifests.
func (rep *Report) Manifest() string {
	var b strings.Builder
	done, failed, pendingN := 0, 0, 0
	for _, c := range rep.Cells {
		switch e, ok := rep.Entries[c.Key]; {
		case !ok:
			pendingN++
		case e.Status == "done":
			done++
		default:
			failed++
		}
	}
	fmt.Fprintf(&b, "campaign %s digest %s cells %d\n", rep.Name, rep.Digest, len(rep.Cells))
	fmt.Fprintf(&b, "done %d failed %d pending %d\n", done, failed, pendingN)
	for _, c := range rep.Cells {
		e, ok := rep.Entries[c.Key]
		switch {
		case !ok:
			fmt.Fprintf(&b, "pending - - %s\n", c.Key)
		case e.Status == "done":
			fmt.Fprintf(&b, "done %s end=%d %s\n", e.FP, e.End, c.Key)
		default:
			fp := e.FP
			if fp == "" {
				fp = "-"
			}
			fmt.Fprintf(&b, "failed %s %s %s\n", e.Kind, fp, c.Key)
		}
	}
	return b.String()
}

// Table renders the campaign's scaling tables from settled entries: one
// ScalingTable block per (app, version, scale) of the spec, processor
// counts ascending, blocks separated by a blank line.
func (s *Spec) Table(entries map[string]Entry) string {
	procs := append([]int(nil), s.Procs...)
	sort.Ints(procs)
	var b strings.Builder
	for _, am := range s.Apps {
		for _, v := range am.Versions {
			for _, sc := range s.Scales {
				if b.Len() > 0 {
					fmt.Fprintln(&b)
				}
				cell := harness.Spec{App: am.App, Version: v, Scale: sc, Check: s.Check}
				ScalingTable(&b, entries, cell, s.Platforms, procs)
			}
		}
	}
	return b.String()
}

// ScalingTable writes one scaling block: for cell's app, version, scale
// and checking mode, the speedup over the platform's uniprocessor original
// (Spec.Baseline, the paper's convention) per processor count (rows, in
// the given order) and platform (columns). A cell renders as "error" when
// it or its baseline failed, and as "-" when either has no settled result.
func ScalingTable(w io.Writer, entries map[string]Entry, cell harness.Spec, plats []string, procs []int) {
	fmt.Fprintf(w, "%s/%s speedup vs uniprocessor original (scale %s)\n", cell.App, cell.Version, strconv.FormatFloat(cell.Scale, 'g', -1, 64))
	fmt.Fprintf(w, "%6s", "P")
	for _, pl := range plats {
		fmt.Fprintf(w, " %8s", pl)
	}
	fmt.Fprintln(w)
	for _, np := range procs {
		fmt.Fprintf(w, "%6d", np)
		for _, pl := range plats {
			cell.Platform, cell.NumProcs = pl, np
			e, okE := entries[cell.MemoKey()]
			base, okB := entries[cell.Baseline().MemoKey()]
			switch {
			case e.Status == "failed" || base.Status == "failed":
				fmt.Fprintf(w, " %8s", "error")
			case !okE || !okB || e.End == 0 || base.End == 0:
				fmt.Fprintf(w, " %8s", "-")
			default:
				fmt.Fprintf(w, " %8.2f", float64(base.End)/float64(e.End))
			}
		}
		fmt.Fprintln(w)
	}
}
