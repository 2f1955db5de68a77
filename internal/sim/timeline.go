package sim

import (
	"fmt"
	"sort"
	"time"
)

// Step is one change point in a device's recorded slowdown schedule: from At
// onward the device computes Factor× slower than its nominal profile, until
// the next step (factors ≤ 1 mean nominal).
type Step struct {
	At     time.Duration `json:"atNs"`
	Factor float64       `json:"factor"`
}

// Timeline is a fleet's perturbation schedule on the virtual clock: the one
// fault model the heavy-traffic sweep and the recovery study price rounds
// against. Devices[j] is device j's recorded piecewise-constant slowdown
// schedule in time order — the replay format, e.g. a live fleet's
// straggler digest (loadgen.ReplayFromStragglers); a nil or short schedule
// leaves a device nominal. On top of it, Slow writes transient slowdown
// windows, which compose multiplicatively with the schedule, and Down
// writes outage windows. Devices must not change once rounds are priced.
type Timeline struct {
	Devices [][]Step `json:"devices"`

	slow, down [][]window
}

// window is a transient perturbation over [from, until).
type window struct {
	from, until time.Duration
	factor      float64
}

// Validate rejects unsorted schedules and non-positive factors. A nil
// timeline is valid. The messages keep the replay format's established
// wording ("loadgen: replay ..."), which callers already match on.
func (tl *Timeline) Validate() error {
	if tl == nil {
		return nil
	}
	for j, steps := range tl.Devices {
		last := time.Duration(-1)
		for i, s := range steps {
			if s.At < last {
				return fmt.Errorf("loadgen: replay device %d step %d at %v is out of order", j, i, s.At)
			}
			last = s.At
			if s.Factor <= 0 {
				return fmt.Errorf("loadgen: replay device %d step %d has factor %g, need > 0", j, i, s.Factor)
			}
		}
	}
	return nil
}

// Slow slows device j by factor over [from, until), replacing whatever
// slowdown window is still open on it. Per device, windows must be written
// in nondecreasing from order.
func (tl *Timeline) Slow(j int, from, until time.Duration, factor float64) {
	tl.slow = appendWindow(tl.slow, j, window{from, until, factor})
}

// Down takes device j out over [from, until): a round starting inside the
// window waits for its end. Overlapping windows extend each other. Per
// device, windows must be written in nondecreasing from order.
func (tl *Timeline) Down(j int, from, until time.Duration) {
	tl.down = appendWindow(tl.down, j, window{from: from, until: until})
}

func appendWindow(ws [][]window, j int, w window) [][]window {
	if j >= len(ws) {
		ws = append(ws, make([][]window, j+1-len(ws))...)
	}
	ws[j] = append(ws[j], w)
	return ws
}

// Perturbed reports whether device j has any recorded step or window; every
// other device always runs at its nominal profile.
func (tl *Timeline) Perturbed(j int) bool {
	return j < len(tl.Devices) && len(tl.Devices[j]) > 0 ||
		j < len(tl.slow) && len(tl.slow[j]) > 0 ||
		j < len(tl.down) && len(tl.down[j]) > 0
}

// Factor is device j's slowdown at t: the slowdown window open at t, if
// any, times the recorded schedule's factor when that exceeds 1.
func (tl *Timeline) Factor(j int, t time.Duration) float64 {
	f := 1.0
	if j < len(tl.slow) {
		ws := tl.slow[j]
		// The latest window started by t is the one in force.
		if i := sort.Search(len(ws), func(i int) bool { return ws[i].from > t }); i > 0 {
			if w := ws[i-1]; w.until > t && w.factor > 1 {
				f = w.factor
			}
		}
	}
	if j < len(tl.Devices) {
		steps := tl.Devices[j]
		if i := sort.Search(len(steps), func(i int) bool { return steps[i].At > t }); i > 0 && steps[i-1].Factor > 1 {
			f *= steps[i-1].Factor
		}
	}
	return f
}

// DownUntil is when device j returns from an outage it is in at t, or 0
// when it is up.
func (tl *Timeline) DownUntil(j int, t time.Duration) time.Duration {
	var end time.Duration
	if j < len(tl.down) {
		for _, w := range tl.down[j] {
			if w.from > t {
				break
			}
			end = max(end, w.until)
		}
	}
	if end <= t {
		return 0
	}
	return end
}

// RoundTime prices device j's share of a vector round over rows×cols coded
// values starting at t: DeviceRoundTime under p slowed by the device's
// factor, plus the wait for the device to return if it is down.
func (tl *Timeline) RoundTime(j, rows, cols int, p DeviceProfile, t time.Duration) time.Duration {
	p.StragglerFactor *= tl.Factor(j, t)
	d := DeviceRoundTime(rows, cols, 1, p)
	if end := tl.DownUntil(j, t); end > t {
		d += end - t
	}
	return d
}

// Changes lists, sorted, every instant at which some device's perturbation
// changes: recorded steps and window starts and ends.
func (tl *Timeline) Changes() []time.Duration {
	var out []time.Duration
	for _, steps := range tl.Devices {
		for _, s := range steps {
			out = append(out, s.At)
		}
	}
	for _, ws := range [][][]window{tl.slow, tl.down} {
		for _, dev := range ws {
			for _, w := range dev {
				out = append(out, w.from, w.until)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
