package loadgen

import (
	"time"

	"github.com/scec/scec/internal/obs/trace"
	"github.com/scec/scec/internal/sim"
)

// ReplayFromStragglers converts a live fleet's straggler digest into a
// replay timeline for VirtualOptions.Replay or adapt.ScenarioConfig.Replay:
// each device's factor is its p95 winning-attempt latency relative to the
// fleet-median p50, clamped to at least 1 — i.e. "make the virtual fleet
// straggle the way the real one just did". Devices appear in digest order;
// devices without samples stay nominal.
func ReplayFromStragglers(digest []trace.DeviceStats) *sim.Timeline {
	var p50s []time.Duration
	for _, d := range digest {
		if d.Samples > 0 && d.P50 > 0 {
			p50s = append(p50s, d.P50)
		}
	}
	baseline := medianDuration(p50s)
	r := &sim.Timeline{Devices: make([][]sim.Step, len(digest))}
	if baseline <= 0 {
		return r
	}
	for j, d := range digest {
		if d.Samples == 0 || d.P95 <= 0 {
			continue
		}
		factor := float64(d.P95) / float64(baseline)
		if factor < 1 {
			factor = 1
		}
		r.Devices[j] = []sim.Step{{At: 0, Factor: factor}}
	}
	return r
}

func medianDuration(v []time.Duration) time.Duration {
	if len(v) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), v...)
	for i := 1; i < len(s); i++ { // insertion sort; digests are small
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
