package loadgen

import (
	"fmt"
	"math/rand/v2"
	"time"

	"github.com/scec/scec/internal/sim"
)

// VirtualOptions configures a virtual-clock load scenario: the same stepped
// open-loop sweep the wall-clock generator runs, executed as a discrete-
// event simulation over thousands of modelled devices. Requests arrive per
// the schedule on the virtual clock; each round's service time is priced on
// a sim.Timeline (the slowest device bounds the round, as in the real
// gather), and the user sustains Concurrency rounds in flight through the
// sim.FCFS queueing kernel, so offered load beyond Concurrency/serviceTime
// queues — which is exactly the saturation knee the sweep detects. Latency is measured from the intended
// virtual arrival time, the same coordinated-omission-safe rule as the real
// generator.
type VirtualOptions struct {
	// Devices is the fleet size; RowsPerDevice the coded rows each holds;
	// Cols the input-vector length. All must be positive.
	Devices, RowsPerDevice, Cols int
	// DeviceRows, when non-empty, gives each device its own coded row count
	// (e.g. an allocation plan's per-device assignment, such as a t-collusion
	// layout): device j serves DeviceRows[j] rows and the slowest device still
	// bounds each round. Its length must equal Devices (or Devices may be left
	// zero to adopt it), and RowsPerDevice is ignored.
	DeviceRows []int
	// Concurrency is how many rounds the user drives in parallel (the
	// service capacity of the queueing model). Zero means 16.
	Concurrency int
	// ChurnEvery is the mean virtual interval between churn events (a device
	// transiently slowing down, or dropping out and re-provisioning). Zero
	// disables churn.
	ChurnEvery time.Duration
	// OutageFrac is the fraction of churn events that are outages — the
	// device leaves and its replacement must receive the coded block before
	// rounds can complete. The rest are slowdowns. Zero means 0.25.
	OutageFrac float64
	// Replay, when non-nil, drives per-device straggler factors from a
	// recorded schedule (e.g. ReplayFromStragglers over a live fleet's
	// straggler digest) instead of — or on top of — random churn.
	Replay *sim.Timeline

	// Rates, RequestsPerStep, Arrival, Seed, and Collector mirror
	// SweepOptions on the virtual clock.
	Rates           []float64
	RequestsPerStep int
	Arrival         Arrival
	Seed            uint64
	Collector       *Collector
}

// Churn slowdowns slow a device by a factor drawn uniformly from
// [2, churnSlowMax] for an exponential time with mean churnSlowSpan
// churn intervals. Every device runs sim.DefaultProfile when nominal.
const (
	churnSlowMax  = 8
	churnSlowSpan = 10
)

// VirtualStats summarizes a virtual sweep: its knee and churn activity.
type VirtualStats struct {
	// KneeQPS is the saturation knee DetectKnee found on the curve.
	KneeQPS float64
	// ChurnEvents counts all churn events; Outages the subset that took a
	// device out entirely.
	ChurnEvents, Outages int
}

func (o *VirtualOptions) validate() error {
	if len(o.DeviceRows) > 0 {
		if o.Devices == 0 {
			o.Devices = len(o.DeviceRows)
		}
		if o.Devices != len(o.DeviceRows) {
			return fmt.Errorf("loadgen: DeviceRows lists %d devices but Devices = %d", len(o.DeviceRows), o.Devices)
		}
		for j, rows := range o.DeviceRows {
			if rows <= 0 {
				return fmt.Errorf("loadgen: DeviceRows[%d] = %d; every device needs at least one coded row", j, rows)
			}
		}
		if o.Cols <= 0 {
			return fmt.Errorf("loadgen: virtual scenario needs positive cols (%d)", o.Cols)
		}
	} else if o.Devices <= 0 || o.RowsPerDevice <= 0 || o.Cols <= 0 {
		return fmt.Errorf("loadgen: virtual scenario needs positive devices (%d), rows (%d), and cols (%d)",
			o.Devices, o.RowsPerDevice, o.Cols)
	}
	if len(o.Rates) == 0 {
		return fmt.Errorf("loadgen: virtual sweep needs at least one rate step")
	}
	return o.Replay.Validate()
}

// rowsOn returns device j's coded row count under either layout.
func (o *VirtualOptions) rowsOn(j int) int {
	if len(o.DeviceRows) > 0 {
		return o.DeviceRows[j]
	}
	return o.RowsPerDevice
}

// VirtualSweep runs the stepped sweep on the virtual clock and returns the
// per-step curve (Saturated flags set by DetectKnee) plus the knee and
// churn statistics. Runs are deterministic in the options: the same seed
// yields the same curve, bit for bit, at any fleet size.
func VirtualSweep(o VirtualOptions) ([]StepResult, VirtualStats, error) {
	if err := o.validate(); err != nil {
		return nil, VirtualStats{}, err
	}
	arrival := o.Arrival
	if arrival == nil {
		arrival = Poisson{}
	}
	var stats VirtualStats
	steps := make([]StepResult, 0, len(o.Rates))
	for i, rate := range o.Rates {
		o.Collector.stepStarted(rate)
		step := o.runStep(rate, arrival, o.Seed+uint64(i), &stats)
		steps = append(steps, step)
		o.Collector.stepDone(step)
	}
	stats.KneeQPS = DetectKnee(steps, 0, 0)
	return steps, stats, nil
}

// runStep simulates one offered-load step: its arrivals run through the
// sim.FCFS kernel, and each round is priced on a fresh sim.Timeline that
// follows the replay and receives churn lazily, from the step's own churn
// stream, as round starts pass the next churn instant.
func (o *VirtualOptions) runStep(rate float64, arrival Arrival, seed uint64, stats *VirtualStats) StepResult {
	requests := o.RequestsPerStep
	if requests <= 0 {
		requests = 1000
	}
	concurrency := o.Concurrency
	if concurrency <= 0 {
		concurrency = 16
	}
	outageFrac := o.OutageFrac
	if outageFrac <= 0 {
		outageFrac = 0.25
	}
	base := sim.DefaultProfile()
	rng := rand.New(rand.NewPCG(seed, 0x71a7c10c))
	churnRNG := rand.New(rand.NewPCG(seed, 0xc402a))

	// nominal is the slowest unperturbed device's round time (devices differ
	// only under a DeviceRows layout): the healthy round bound, so pricing a
	// round over thousands of devices reprices only the perturbed few.
	var nominal time.Duration
	for j := 0; j < o.Devices; j++ {
		nominal = max(nominal, sim.DeviceRoundTime(o.rowsOn(j), o.Cols, 1, base))
	}
	tl := &sim.Timeline{}
	if o.Replay != nil {
		tl.Devices = o.Replay.Devices
	}

	nextChurn := time.Duration(-1)
	if o.ChurnEvery > 0 {
		nextChurn = time.Duration(churnRNG.ExpFloat64() * float64(o.ChurnEvery))
	}
	// churn writes every churn event due by now: a slowdown, or an outage
	// that lasts until the replacement device receives the coded block.
	churn := func(now time.Duration) {
		for nextChurn >= 0 && nextChurn <= now {
			at := nextChurn
			j := churnRNG.IntN(o.Devices)
			stats.ChurnEvents++
			if churnRNG.Float64() < outageFrac {
				stats.Outages++
				tl.Down(j, at, at+sim.PushTime(o.rowsOn(j), o.Cols, base))
			} else {
				factor := 2 + churnRNG.Float64()*(churnSlowMax-2)
				span := time.Duration(churnRNG.ExpFloat64() * float64(churnSlowSpan*o.ChurnEvery))
				tl.Slow(j, at, at+span, factor)
			}
			nextChurn = at + time.Duration(churnRNG.ExpFloat64()*float64(o.ChurnEvery))
		}
	}

	arrivals := make([]time.Duration, requests)
	for i := 1; i < requests; i++ {
		arrivals[i] = arrivals[i-1] + arrival.Gap(rng, rate)
	}
	rec := NewRecorder()
	var lastFinish time.Duration
	// A round lasts as long as its slowest device.
	sim.FCFS(concurrency, arrivals, func(start time.Duration) time.Duration {
		churn(start)
		worst := nominal
		for j := 0; j < o.Devices; j++ {
			if tl.Perturbed(j) {
				worst = max(worst, tl.RoundTime(j, o.rowsOn(j), o.Cols, base, start))
			}
		}
		return worst
	}, func(arrive, finish time.Duration) {
		rec.Record(finish - arrive)
		lastFinish = max(lastFinish, finish)
	})

	res := Result{
		Offered:  rate,
		Requests: requests,
		Elapsed:  lastFinish,
		Latency:  rec,
	}
	if lastFinish > 0 {
		res.Achieved = float64(requests) / lastFinish.Seconds()
	}
	return summarize(res)
}
