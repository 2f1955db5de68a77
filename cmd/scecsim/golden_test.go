package main

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestAdaptCheckMatchesCommittedReport reruns the `make adapt-check`
// configuration and requires its JSON to equal results/adapt.json byte for
// byte: the scenario runs on a virtual clock with one seeded RNG, so any
// difference is a behaviour change in the simulator or the control plane.
func TestAdaptCheckMatchesCommittedReport(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden report recorded on amd64; Go may fuse multiply-add on %s, so float results can differ", runtime.GOARCH)
	}
	outPath := filepath.Join(t.TempDir(), "adapt.json")
	var out strings.Builder
	if err := run([]string{"-adaptive", "-adapt-check", "-adapt-out", outPath}, &out); err != nil {
		t.Fatalf("adapt-check failed: %v\n%s", err, out.String())
	}
	got, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "results", "adapt.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("adapt-check report differs from results/adapt.json:\n%s", got)
	}
}
