package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/server"
)

// svmsim -json prints the canonical cell document, with or without
// -speedup: exactly the bytes server.CellBody (and so GET /run) produces.
func TestJSONIsCellBody(t *testing.T) {
	spec := harness.Spec{App: "radix", Version: "orig", Platform: "svm", NumProcs: 4, Scale: 0.125}
	for _, speedup := range []bool{false, true} {
		args := []string{"-app", "radix", "-version", "orig", "-platform", "svm", "-p", "4", "-scale", "0.125", "-json"}
		if speedup {
			args = append(args, "-speedup")
		}
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("speedup=%v: exit %d, stderr %s", speedup, code, stderr.String())
		}
		want, _, _ := server.CellBody(harness.NewMemo(nil), spec, speedup)
		if !bytes.Equal(stdout.Bytes(), want) {
			t.Errorf("speedup=%v: svmsim -json printed\n%s\nwant CellBody\n%s", speedup, stdout.Bytes(), want)
		}
	}
}

// A failed cell prints its structured error document and exits 1.
func TestJSONFailedCell(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-app", "radix", "-version", "nope", "-p", "2", "-scale", "0.125", "-json"}, &stdout, &stderr)
	if code != 1 || !strings.Contains(stdout.String(), `"error"`) {
		t.Errorf("exit %d, stdout %s; want 1 and an error document", code, stdout.String())
	}
}

// The speedup line names the denominator the paper's convention uses: the
// application's original version, which for barnes is "splash".
func TestSpeedupLabelNamesOriginalVersion(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-app", "barnes", "-version", "spatial", "-p", "2", "-scale", "0.0625", "-speedup"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "speedup vs uniprocessor barnes/splash: ") {
		t.Errorf("speedup line does not name barnes/splash:\n%s", stdout.String())
	}
}
