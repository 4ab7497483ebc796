package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/campaign"
	"repro/internal/stats"
)

// campaignDir holds the committed campaign specs and journals, relative to
// the repository root the benchmark runs from.
const campaignDir = "campaigns"

// reference is the committed outcome of one cell: the fingerprint of its
// canonical document and its simulated end time.
type reference struct {
	FP  string
	End uint64
}

// loadCells decodes the committed campaign spec name, lets narrow restrict
// its axes, and expands it. It returns the cells and the time Expand took.
func loadCells(name string, narrow func(*campaign.Spec)) ([]campaign.Cell, error) {
	data, err := os.ReadFile(filepath.Join(campaignDir, name+".json"))
	if err != nil {
		return nil, err
	}
	spec, err := campaign.DecodeSpec(data)
	if err != nil {
		return nil, err
	}
	if narrow != nil {
		narrow(spec)
	}
	return spec.Expand()
}

// loadReferences reads the committed journal of campaign name and returns
// the entry of every cell in cells. A cell without a done entry is an
// error: the benchmark only runs cells it can check.
func loadReferences(name string, cells []campaign.Cell) (map[string]reference, error) {
	data, err := os.ReadFile(filepath.Join(campaignDir, name+".journal"))
	if err != nil {
		return nil, err
	}
	all := map[string]reference{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for first := true; sc.Scan(); first = false {
		if first {
			continue // header line
		}
		var e campaign.Entry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("%s.journal: %w", name, err)
		}
		if e.Status == "done" {
			all[e.Key] = reference{FP: e.FP, End: e.End}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	refs := make(map[string]reference, len(cells))
	for _, c := range cells {
		r, ok := all[c.Key]
		if !ok {
			return nil, fmt.Errorf("%s.journal has no done entry for %s", name, c.Key)
		}
		refs[c.Key] = r
	}
	return refs, nil
}

// fingerprint names a cell document the way campaign journals do: the
// first 8 bytes of its SHA-256, hex.
func fingerprint(body []byte) string {
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:8])
}

// cellDoc is the part of the canonical cell document the checks read.
type cellDoc struct {
	EndTime  uint64         `json:"end_time"`
	Counters stats.Counters `json:"counters"`
}

// checkBody compares a 200 cell document against its committed reference
// and returns the decoded document.
func checkBody(key string, body []byte, ref reference) (cellDoc, error) {
	var doc cellDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		return doc, fmt.Errorf("%s: undecodable document: %w", key, err)
	}
	if fp := fingerprint(body); fp != ref.FP {
		return doc, fmt.Errorf("%s: fingerprint %s, committed %s", key, fp, ref.FP)
	}
	if doc.EndTime != ref.End {
		return doc, fmt.Errorf("%s: end_time %d, committed %d", key, doc.EndTime, ref.End)
	}
	return doc, nil
}
