package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestLoadCheckSimScenarioMatchesCommitted reruns `make load-check` with its
// exact virtual-clock flags (1000 devices, rates 500–4000, 2000 requests per
// step, default seed, the sim SLO) and requires the sim-1000dev-churn entry
// to equal the committed one in results/load.json byte for byte: steps,
// knee, churn and outage counts, and SLO verdicts. The wall-clock fleet
// sweep that precedes it is shrunk to one short step; it does not feed the
// simulated scenario.
func TestLoadCheckSimScenarioMatchesCommitted(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden report recorded on amd64; Go may fuse multiply-add on %s, so float results can differ", runtime.GOARCH)
	}
	outPath := filepath.Join(t.TempDir(), "load.json")
	var out strings.Builder
	err := run([]string{"load", "-rates", "50", "-step-requests", "20",
		"-sim-devices", "1000", "-sim-rates", "500,1000,2000,4000", "-sim-step-requests", "2000",
		"-sim-slo", "p99<=100ms@1000",
		"-out", outPath, "-md", ""}, &out)
	if err != nil {
		t.Fatalf("load: %v\n%s", err, out.String())
	}
	const name = "sim-1000dev-churn"
	got := scenarioEntry(t, outPath, name)
	want := scenarioEntry(t, filepath.Join("..", "..", "results", "load.json"), name)
	if !bytes.Equal(got, want) {
		t.Fatalf("%s differs from results/load.json:\ngot  %s\nwant %s", name, got, want)
	}
}

// scenarioEntry returns the raw JSON of the named scenario in a load report.
func scenarioEntry(t *testing.T, path, name string) json.RawMessage {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Scenarios []json.RawMessage `json:"scenarios"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	for _, raw := range rep.Scenarios {
		var head struct {
			Name string `json:"name"`
		}
		if err := json.Unmarshal(raw, &head); err != nil {
			t.Fatal(err)
		}
		if head.Name == name {
			return raw
		}
	}
	t.Fatalf("%s has no scenario %q", path, name)
	return nil
}
