package sim

import (
	"errors"
	"math/rand/v2"
	"testing"
	"time"

	"github.com/scec/scec/internal/coding"
	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/matrix"
)

func testRNG() *rand.Rand { return rand.New(rand.NewPCG(13, 29)) }

// setup builds an encoding for m=6, l=4, r=2 over the prime field.
func setup(t *testing.T) (field.Prime, *coding.Encoding[uint64], *matrix.Dense[uint64], []uint64) {
	t.Helper()
	f := field.Prime{}
	rng := testRNG()
	s, err := coding.New(6, 2)
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.Random[uint64](f, rng, 6, 4)
	enc, err := coding.Encode[uint64](f, s, a, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := matrix.RandomVec[uint64](f, rng, 4)
	return f, enc, a, x
}

func uniformConfig(devices int) Config {
	profiles := make([]DeviceProfile, devices)
	for j := range profiles {
		profiles[j] = DefaultProfile()
	}
	return Config{Profiles: profiles, UserComputeRate: 1e9, Seed: 1}
}

func TestRunDecodesCorrectly(t *testing.T) {
	f, enc, a, x := setup(t)
	cfg := uniformConfig(len(enc.Blocks))
	got, rep, err := Run(f, enc, x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := matrix.MulVec[uint64](f, a, x)
	if !matrix.VecEqual[uint64](f, got, want) {
		t.Fatal("simulated pipeline decoded the wrong result")
	}
	if rep.CompletionTime <= 0 {
		t.Fatal("completion time must be positive")
	}
	if rep.DecodeOps != 6 {
		t.Fatalf("decode ops = %d, want m = 6", rep.DecodeOps)
	}
}

func TestResourceAccountingMatchesCostModel(t *testing.T) {
	// The simulator's per-device counters must match the Eq. (1) terms: a
	// device with v rows of length l stores v·l + l + v values, multiplies
	// v·l times and adds v·(l−1) times, and sends v values.
	f, enc, _, x := setup(t)
	cfg := uniformConfig(len(enc.Blocks))
	_, rep, err := Run(f, enc, x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	l := 4
	for _, d := range rep.Devices {
		v := d.Rows
		if d.StorageValues != v*l+l+v {
			t.Fatalf("device %d storage = %d, want %d", d.Device, d.StorageValues, v*l+l+v)
		}
		if d.FieldOps != int64(v*l+v*(l-1)) {
			t.Fatalf("device %d ops = %d, want %d", d.Device, d.FieldOps, v*l+v*(l-1))
		}
		if d.ValuesSent != v {
			t.Fatalf("device %d sent %d values, want %d", d.Device, d.ValuesSent, v)
		}
	}
	// Totals: m+r rows across all devices.
	if rep.TotalValuesSent != 8 {
		t.Fatalf("total values sent = %d, want m+r = 8", rep.TotalValuesSent)
	}
}

func TestCompletionTimeIsMaxOverDevices(t *testing.T) {
	f, enc, _, x := setup(t)
	cfg := uniformConfig(len(enc.Blocks))
	_, rep, err := Run(f, enc, x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var latest time.Duration
	for _, d := range rep.Devices {
		if d.ResultArrives > latest {
			latest = d.ResultArrives
		}
	}
	if rep.CompletionTime <= latest {
		t.Fatal("completion must include decode time after the last arrival")
	}
}

func TestStragglerDelaysCompletion(t *testing.T) {
	f, enc, _, x := setup(t)
	cfg := uniformConfig(len(enc.Blocks))
	_, base, err := Run(f, enc, x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	slow := uniformConfig(len(enc.Blocks))
	slow.Profiles[0].StragglerFactor = 50
	_, delayed, err := Run(f, enc, x, slow)
	if err != nil {
		t.Fatal(err)
	}
	if delayed.CompletionTime <= base.CompletionTime {
		t.Fatalf("straggler should delay completion: %v vs %v", delayed.CompletionTime, base.CompletionTime)
	}
	if delayed.Devices[0].ComputeDone <= base.Devices[0].ComputeDone {
		t.Fatal("straggler's own compute time should grow")
	}
}

func TestDeviceFailureAborts(t *testing.T) {
	f, enc, _, x := setup(t)
	cfg := uniformConfig(len(enc.Blocks))
	cfg.Profiles[1].FailProb = 1
	_, rep, err := Run(f, enc, x, cfg)
	if !errors.Is(err, ErrDeviceFailed) {
		t.Fatalf("err = %v, want ErrDeviceFailed", err)
	}
	if !rep.Devices[1].Failed {
		t.Fatal("failed device not flagged in report")
	}
}

func TestFailureSamplingIsSeeded(t *testing.T) {
	f, enc, _, x := setup(t)
	cfg := uniformConfig(len(enc.Blocks))
	for j := range cfg.Profiles {
		cfg.Profiles[j].FailProb = 0.5
	}
	_, rep1, err1 := Run(f, enc, x, cfg)
	_, rep2, err2 := Run(f, enc, x, cfg)
	if (err1 == nil) != (err2 == nil) {
		t.Fatal("same seed must reproduce the same failure outcome")
	}
	for j := range rep1.Devices {
		if rep1.Devices[j].Failed != rep2.Devices[j].Failed {
			t.Fatal("same seed must reproduce identical per-device failures")
		}
	}
}

func TestConfigValidation(t *testing.T) {
	f, enc, _, x := setup(t)

	cfg := uniformConfig(len(enc.Blocks) - 1)
	if _, _, err := Run(f, enc, x, cfg); err == nil {
		t.Error("profile count mismatch should error")
	}

	cfg = uniformConfig(len(enc.Blocks))
	cfg.UserComputeRate = 0
	if _, _, err := Run(f, enc, x, cfg); err == nil {
		t.Error("zero user compute rate should error")
	}

	cfg = uniformConfig(len(enc.Blocks))
	cfg.Profiles[0].ComputeRate = 0
	if _, _, err := Run(f, enc, x, cfg); err == nil {
		t.Error("invalid device profile should error")
	}

	cfg = uniformConfig(len(enc.Blocks))
	if _, _, err := Run(f, enc, x[:2], cfg); err == nil {
		t.Error("input length mismatch should error")
	}

	bare := &coding.Encoding[uint64]{Blocks: enc.Blocks}
	if _, _, err := Run(f, bare, x, cfg); err == nil {
		t.Error("encoding without a scheme should error")
	}
}

func TestProfileValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*DeviceProfile)
		ok   bool
	}{
		{"default", func(*DeviceProfile) {}, true},
		{"zero compute", func(p *DeviceProfile) { p.ComputeRate = 0 }, false},
		{"zero uplink", func(p *DeviceProfile) { p.UplinkRate = 0 }, false},
		{"zero downlink", func(p *DeviceProfile) { p.DownlinkRate = 0 }, false},
		{"negative latency", func(p *DeviceProfile) { p.Latency = -time.Second }, false},
		{"sub-one straggler", func(p *DeviceProfile) { p.StragglerFactor = 0.5 }, false},
		{"fail prob above one", func(p *DeviceProfile) { p.FailProb = 1.5 }, false},
		{"fail prob one", func(p *DeviceProfile) { p.FailProb = 1 }, true},
	}
	for _, tc := range cases {
		p := DefaultProfile()
		tc.mut(&p)
		if err := p.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestPushTimeMatchesStoreTime(t *testing.T) {
	f, enc, _, x := setup(t)
	cfg := uniformConfig(len(enc.Blocks))
	slowLink := DefaultProfile()
	slowLink.UplinkRate = 1e3 // device 1's push now bounds the store stage
	cfg.Profiles[1] = slowLink
	_, rep, err := Run(f, enc, x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := PushTime(enc.Blocks[1].Rows(), len(x), slowLink)
	if rep.StoreTime != want {
		t.Fatalf("StoreTime = %v, PushTime = %v", rep.StoreTime, want)
	}
}
