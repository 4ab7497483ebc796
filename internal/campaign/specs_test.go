package campaign

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"

	_ "repro/internal/apps"
	"repro/internal/harness"
)

// The committed irregular-workload campaign spec must expand to the exact
// manifest its committed journal was written for. This pins three things
// at once: the spec file's axes, the class predicates resolving through
// the registry taxonomy (a version gaining or losing its class silently
// would shrink the manifest), and the memo-key spelling the journal's
// entries are addressed by. If this digest changes, the journal can no
// longer resume and must be regenerated along with the spec.
const irregularDigest = "12e437818e2210f5bffcde0f112d2d37"

func readSpec(t *testing.T, name string) *Spec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "campaigns", name))
	if err != nil {
		t.Fatal(err)
	}
	s, err := DecodeSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestIrregularSpecExpandsToCommittedDigest(t *testing.T) {
	s := readSpec(t, "irregular.json")
	cells, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// 3 apps x 4 versions x 6 platforms x 5 proc counts x 1 scale; the
	// all-classes include must not filter anything (every version carries
	// one of the paper's four classes).
	if len(cells) != 360 {
		t.Fatalf("irregular.json expands to %d cells, want 360", len(cells))
	}
	if d := Digest(cells); d != irregularDigest {
		t.Errorf("irregular.json manifest digest %s, want %s (spec or memo-key spelling changed; regenerate the journal)", d, irregularDigest)
	}
}

// The committed journal must belong to that same manifest and record every
// cell done, so `campaign -spec campaigns/irregular.json -resume -table`
// re-renders the study with zero simulations.
func TestIrregularJournalIsCompleteForCommittedDigest(t *testing.T) {
	f, err := os.Open(filepath.Join("..", "..", "campaigns", "irregular.journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		t.Fatal("empty journal")
	}
	var hdr struct {
		V      int    `json:"v"`
		Name   string `json:"name"`
		Digest string `json:"digest"`
		Cells  int    `json:"cells"`
	}
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		t.Fatal(err)
	}
	if hdr.Name != "irregular" || hdr.Digest != irregularDigest || hdr.Cells != 360 {
		t.Fatalf("journal header %+v does not match committed digest %s / 360 cells", hdr, irregularDigest)
	}
	done := 0
	for sc.Scan() {
		var e Entry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad journal line: %v", err)
		}
		if e.Status != "done" {
			t.Errorf("cell %s journaled as %s, want done", e.Key, e.Status)
		}
		done++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if done != 360 {
		t.Errorf("journal has %d entries, want 360", done)
	}
}

// Every shearwarp and volrend cell of the committed scaling study
// re-simulates to its journaled document fingerprint and end time, on all
// four platforms at P = 1-128: the procedural head produces the same RLE
// layout, costs and memory traffic as the dense volume the journal was
// written from. (The document holds timing and counters, not image bits;
// those are pinned by the apputil head tests and the engine goldens.)
func TestScaling128ImageAppsReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("re-simulates 128 cells")
	}
	data, err := os.ReadFile(filepath.Join("..", "..", "campaigns", "scaling128.journal"))
	if err != nil {
		t.Fatal(err)
	}
	_, off, err := decodeJournalHeader(data)
	if err != nil {
		t.Fatal(err)
	}
	entries, _ := decodeJournalEntries(data[off:])
	journaled := map[string]Entry{}
	for _, e := range entries {
		journaled[e.Key] = e
	}
	all, err := readSpec(t, "scaling128.json").Expand()
	if err != nil {
		t.Fatal(err)
	}
	var cells []Cell
	for _, c := range all {
		if c.Spec.App == "shearwarp" || c.Spec.App == "volrend" {
			cells = append(cells, c)
		}
	}
	if len(cells) != 128 {
		t.Fatalf("scaling128.json has %d shearwarp/volrend cells, want 128", len(cells))
	}
	var mu sync.Mutex
	got := map[string]Entry{}
	(&Local{Memo: harness.NewMemo(nil)}).Execute(context.Background(), cells, func(o Outcome) {
		mu.Lock()
		got[o.Cell.Key] = entryFor(o)
		mu.Unlock()
	})
	for _, c := range cells {
		want, ok := journaled[c.Key]
		if !ok {
			t.Errorf("%s: not in the journal", c.Key)
			continue
		}
		if e := got[c.Key]; e.Status != "done" || e.FP != want.FP || e.End != want.End {
			t.Errorf("%s: re-simulated %s fp=%s end=%d, journaled %s fp=%s end=%d", c.Key, e.Status, e.FP, e.End, want.Status, want.FP, want.End)
		}
	}
}
