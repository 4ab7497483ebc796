package main

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func TestParseProcs(t *testing.T) {
	good := []struct {
		in   string
		want []int
	}{
		{"1,2,4,8,16", []int{1, 2, 4, 8, 16}},
		{"16", []int{16}},
		{" 8 ,\t4 ", []int{8, 4}}, // whitespace tolerated, order preserved
		{"1, 2,4", []int{1, 2, 4}},
	}
	for _, c := range good {
		got, err := parseProcs(c.in)
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("parseProcs(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	bad := []string{"", "0", "-1", "-2", "x", "two", "1,,2", "1,1", "1,2,1", "4,0x8", "1e3"}
	for _, in := range bad {
		if got, err := parseProcs(in); err == nil {
			t.Errorf("parseProcs(%q) = %v; want error", in, got)
		}
	}
}

// FuzzParseProcs pins the -procs contract: never panic, and any accepted
// list contains only positive, duplicate-free counts that round-trip through
// the same syntax.
func FuzzParseProcs(f *testing.F) {
	for _, s := range []string{"1,2,4,8,16", "16", "", "1,1", " 8 , 4 ", "0", "-3,2", "999999999999999999999"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		counts, err := parseProcs(s)
		if err != nil {
			return
		}
		if len(counts) == 0 {
			t.Fatalf("parseProcs(%q) accepted an empty list", s)
		}
		seen := map[int]bool{}
		parts := make([]string, len(counts))
		for i, n := range counts {
			if n < 1 {
				t.Fatalf("parseProcs(%q) accepted non-positive count %d", s, n)
			}
			if seen[n] {
				t.Fatalf("parseProcs(%q) accepted duplicate count %d", s, n)
			}
			seen[n] = true
			parts[i] = fmt.Sprint(n)
		}
		again, err := parseProcs(strings.Join(parts, ","))
		if err != nil || !reflect.DeepEqual(again, counts) {
			t.Fatalf("parseProcs round-trip of %v: got %v, %v", counts, again, err)
		}
	})
}

// An unknown -platform is a usage error caught before any cell is
// simulated; empty selects the paper's platforms.
func TestParsePlatform(t *testing.T) {
	if got, err := parsePlatform(""); err != nil || !reflect.DeepEqual(got, []string{"svm", "smp", "dsm"}) {
		t.Errorf(`parsePlatform("") = %v, %v`, got, err)
	}
	if got, err := parsePlatform("dsm-msi"); err != nil || !reflect.DeepEqual(got, []string{"dsm-msi"}) {
		t.Errorf(`parsePlatform("dsm-msi") = %v, %v`, got, err)
	}
	if got, err := parsePlatform("vax"); err == nil || !strings.Contains(err.Error(), "svmsmp") {
		t.Errorf(`parsePlatform("vax") = %v, %v; want an error listing the presets`, got, err)
	}
}

func TestSweepCells(t *testing.T) {
	cells := sweepCells("lu", "4da", []string{"svm", "smp"}, []int{1, 4}, 1)
	// Per platform: baseline orig@1 + 4da@{1,4} = 3 cells, no dedup overlap.
	if len(cells) != 6 {
		t.Fatalf("got %d cells, want 6", len(cells))
	}
	// Sweeping the original version itself dedups the baseline against the
	// matrix's P=1 column.
	cells = sweepCells("lu", "orig", []string{"svm"}, []int{1, 4}, 1)
	if len(cells) != 2 {
		t.Fatalf("orig sweep: got %d cells, want 2 (baseline == P=1 cell)", len(cells))
	}
	seen := map[string]bool{}
	for _, c := range cells {
		if seen[c.Key] {
			t.Errorf("duplicate cell %s", c.Key)
		}
		seen[c.Key] = true
	}
	// Barnes baselines must use its original version name.
	cells = sweepCells("barnes", "spatial", []string{"svm"}, []int{4}, 1)
	found := false
	for _, c := range cells {
		if c.Spec.Version == "splash" && c.Spec.NumProcs == 1 {
			found = true
		}
	}
	if !found {
		t.Error("barnes sweep lacks the splash uniprocessor baseline")
	}
}
