package main

import (
	"strings"
	"testing"

	"github.com/scec/scec"
	"github.com/scec/scec/internal/transport"
)

func TestDemoEndToEnd(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"demo", "-m", "40", "-l", "8", "-k", "5", "-seed", "4"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"launched 5 loopback devices", "plan:", "verified all 40 entries"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

// TestDemoCollusionBatch runs the demo on the t-collusion tier with a batch
// query, so both the vector and the batch decode of the collusion code run
// through scec.Serve over real sockets.
func TestDemoCollusionBatch(t *testing.T) {
	var out strings.Builder
	args := []string{"demo", "-m", "40", "-l", "8", "-k", "5", "-seed", "4", "-t", "2", "-batch", "2"}
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		" t=2,",
		"verified all 40 entries",
		"user decoded the batch A·X (2 columns) over TCP and verified it",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestDriveAgainstManagedFleet(t *testing.T) {
	f := scec.PrimeField()
	var addrs []string
	for j := 0; j < 4; j++ {
		srv, err := transport.NewDeviceServer[uint64](f, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		addrs = append(addrs, srv.Addr())
	}
	var out strings.Builder
	args := []string{"drive", "-devices", strings.Join(addrs, ","), "-m", "30", "-l", "6"}
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "verified all 30 entries") {
		t.Fatalf("drive did not verify:\n%s", out.String())
	}
}

func TestFleetEndToEndWithFaults(t *testing.T) {
	var out strings.Builder
	args := []string{"fleet", "-m", "30", "-l", "6", "-k", "4", "-replicas", "2",
		"-standbys", "1", "-queries", "4", "-inject-faults", "-seed", "3"}
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"replicas per block",
		"injected faults: killed the first replica",
		"served 4 queries; every decoded A·x verified exactly",
		"fleet summary:",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestFleetFlagValidation(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"fleet", "-replicas", "0"}, &out); err == nil {
		t.Error("zero replicas should error")
	}
}

func TestRunUsageErrors(t *testing.T) {
	var out strings.Builder
	if err := run(nil, &out); err == nil {
		t.Error("no args should error")
	}
	if err := run([]string{"bogus"}, &out); err == nil {
		t.Error("unknown role should error")
	}
	if err := run([]string{"drive", "-devices", "only-one:1"}, &out); err == nil {
		t.Error("single-device drive should error")
	}
}

func TestSplitAddrs(t *testing.T) {
	got := splitAddrs(" a:1, ,b:2,")
	if len(got) != 2 || got[0] != "a:1" || got[1] != "b:2" {
		t.Fatalf("splitAddrs = %v", got)
	}
}

func TestFleetLocalBackendWithCoalescing(t *testing.T) {
	var out strings.Builder
	args := []string{"fleet", "-backend", "local", "-m", "24", "-l", "6", "-k", "4",
		"-queries", "6", "-coalesce-window", "50ms", "-seed", "7"}
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"backend local: queries run on the in-process engine",
		"served 6 queries; every decoded A·x verified exactly",
		"engine summary:",
		"coalescing:",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestFleetBackendValidation(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"fleet", "-backend", "bogus"}, &out); err == nil {
		t.Error("unknown backend should error")
	}
	if err := run([]string{"fleet", "-backend", "local", "-inject-faults"}, &out); err == nil {
		t.Error("local backend with fault injection should error")
	}
}
