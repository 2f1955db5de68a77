package sim

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestTimelineStepLookup(t *testing.T) {
	tl := &Timeline{Devices: [][]Step{
		1: {{At: 10, Factor: 4}, {At: 20, Factor: 0.5}, {At: 30, Factor: 3}},
	}}
	for _, c := range []struct {
		t    time.Duration
		want float64
	}{
		{0, 1}, {9, 1}, {10, 4}, {19, 4}, {20, 1}, {29, 1}, {30, 3}, {1000, 3},
	} {
		if got := tl.Factor(1, c.t); got != c.want {
			t.Errorf("Factor(1, %d) = %g, want %g", c.t, got, c.want)
		}
	}
	if got := tl.Factor(0, 15); got != 1 {
		t.Errorf("device without a schedule: factor %g, want 1", got)
	}
	if got := tl.Factor(7, 15); got != 1 {
		t.Errorf("device past the schedule list: factor %g, want 1", got)
	}

	// A slowdown window composes multiplicatively with the schedule, and a
	// later window replaces one still open.
	tl.Slow(1, 12, 40, 2)
	tl.Slow(1, 14, 16, 5)
	if got := tl.Factor(1, 13); got != 8 {
		t.Errorf("window 2 × schedule 4 = %g, want 8", got)
	}
	if got := tl.Factor(1, 15); got != 20 {
		t.Errorf("replacing window 5 × schedule 4 = %g, want 20", got)
	}
	if got := tl.Factor(1, 17); got != 4 {
		t.Errorf("after the replacing window closes: %g, want the schedule's 4", got)
	}
	if !tl.Perturbed(1) || tl.Perturbed(0) {
		t.Error("Perturbed must flag exactly the devices with entries")
	}
	want := []time.Duration{10, 12, 14, 16, 20, 30, 40}
	if got := tl.Changes(); !reflect.DeepEqual(got, want) {
		t.Errorf("Changes() = %v, want %v", got, want)
	}
}

func TestTimelineDownWindowPricing(t *testing.T) {
	p := DefaultProfile()
	nominal := DeviceRoundTime(8, 64, 1, p)
	tl := &Timeline{}
	tl.Down(2, time.Second, 3*time.Second)
	tl.Down(2, 2*time.Second, 5*time.Second) // overlapping: extends the outage
	for _, c := range []struct {
		t, until time.Duration
	}{
		{0, 0},
		{time.Second, 3 * time.Second},
		{2500 * time.Millisecond, 5 * time.Second},
		{5 * time.Second, 0},
	} {
		if got := tl.DownUntil(2, c.t); got != c.until {
			t.Errorf("DownUntil(2, %v) = %v, want %v", c.t, got, c.until)
		}
		want := nominal
		if c.until > 0 {
			want += c.until - c.t
		}
		if got := tl.RoundTime(2, 8, 64, p, c.t); got != want {
			t.Errorf("RoundTime at %v = %v, want %v", c.t, got, want)
		}
	}

	// A slowed device is priced at the scaled straggler factor.
	tl.Slow(3, 0, time.Second, 4)
	slow := p
	slow.StragglerFactor = 4
	if got, want := tl.RoundTime(3, 8, 64, p, 0), DeviceRoundTime(8, 64, 1, slow); got != want {
		t.Errorf("slowed RoundTime = %v, want %v", got, want)
	}
}

func TestTimelineValidate(t *testing.T) {
	var nilTimeline *Timeline
	if err := nilTimeline.Validate(); err != nil {
		t.Fatalf("nil timeline must be valid: %v", err)
	}
	outOfOrder := &Timeline{Devices: [][]Step{
		{{At: time.Second, Factor: 2}, {At: 0, Factor: 1}},
	}}
	err := outOfOrder.Validate()
	if err == nil || err.Error() != "loadgen: replay device 0 step 1 at 0s is out of order" {
		t.Fatalf("out-of-order timeline: got %v", err)
	}
	bad := &Timeline{Devices: [][]Step{{{At: 0, Factor: 0}}}}
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "need > 0") {
		t.Fatalf("non-positive factor: got %v", err)
	}
}
