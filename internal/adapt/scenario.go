package adapt

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strconv"
	"time"

	"github.com/scec/scec/internal/alloc"
	"github.com/scec/scec/internal/coding"
	"github.com/scec/scec/internal/loadgen"
	"github.com/scec/scec/internal/sim"
)

// ScenarioConfig describes the virtual-clock recovery study: a large fleet
// deployed by TA2 on base costs, hit mid-run by a chronic straggler and a
// transient outage, served under three placement policies — the adaptive
// control plane, a frozen baseline that never re-plans, and an oracle that
// re-plans instantly on the true factors. Everything runs on internal/sim's
// queueing kernel and perturbation timeline with one seeded RNG, so a given
// config yields a bit-identical report.
type ScenarioConfig struct {
	// Devices is the candidate pool size (default 1000); M the data
	// matrix's row count (default 4096; it has scenarioCols columns).
	Devices, M int
	// QPS is the open-loop offered load (default 100); Duration the virtual
	// run length (default 60s).
	QPS      float64
	Duration time.Duration
	// Seed drives the Poisson arrivals (default 1).
	Seed uint64

	// StragglerAt injects a chronic stragglerFactor× slowdown into the
	// device hosting block 0, at 10s by default; negative disables.
	StragglerAt time.Duration
	// OutageAt takes the device hosting block 1 down for outageDuration
	// (default 20s); negative disables.
	OutageAt time.Duration
	// Replay, when non-nil, replaces the built-in chronic straggler with a
	// recorded per-device factor schedule (loadgen.ReplayFromStragglers);
	// Devices[j] follows pool device j.
	Replay *sim.Timeline

	// InitialR forces the starting deployment to the (suboptimal) plan
	// PlanForR(base, InitialR) instead of the TA2 optimum — a way to watch
	// the control plane discover a better r and reshape. Zero starts
	// optimal.
	InitialR int
}

// The scenario's fixed shape. The control loop runs tighter than the
// wall-clock defaults (scenarioReplanEvery, scenarioMinImprovement,
// scenarioCooldown, scenarioAlpha) to match the virtual timescale.
const (
	scenarioCols           = 256
	scenarioConcurrency    = 16 // rounds the user keeps in flight
	stragglerFactor        = 5.0
	outageDuration         = 8 * time.Second
	scenarioReplanEvery    = 500 * time.Millisecond
	scenarioMinImprovement = 0.03
	scenarioCooldown       = 2 * time.Second
	scenarioAlpha          = 0.35
)

// scenarioProfile is the nominal device: 1 MF/s compute, 10M values/s
// links, 2 ms latency — compute-dominated, so straggling is visible.
var scenarioProfile = sim.DeviceProfile{
	ComputeRate:     1e6,
	UplinkRate:      10e6,
	DownlinkRate:    10e6,
	Latency:         2 * time.Millisecond,
	StragglerFactor: 1,
}

func (c ScenarioConfig) withDefaults() ScenarioConfig {
	if c.Devices <= 0 {
		c.Devices = 1000
	}
	if c.M <= 0 {
		c.M = 4096
	}
	if c.QPS <= 0 {
		c.QPS = 100
	}
	if c.Duration <= 0 {
		c.Duration = 60 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.StragglerAt == 0 {
		c.StragglerAt = 10 * time.Second
	}
	if c.OutageAt == 0 {
		c.OutageAt = 20 * time.Second
	}
	return c
}

// measureFrom is where the steady-state window starts: 0.6×Duration, after
// both faults and the recovery transient.
func (c ScenarioConfig) measureFrom() time.Duration {
	return time.Duration(0.6 * float64(c.Duration))
}

// ArmResult summarizes one serving regime.
type ArmResult struct {
	Name     string `json:"name"`
	Requests int    `json:"requests"`
	// FailedQueries is always 0 by construction — migrations never drop a
	// request — and reported so the invariant is pinned in results files.
	FailedQueries int `json:"failedQueries"`
	// Steady* are quantiles over requests arriving after MeasureFromMs;
	// OverallP99 covers the whole run (fault transients included).
	SteadyP50Ms  float64 `json:"steadyP50Ms"`
	SteadyP95Ms  float64 `json:"steadyP95Ms"`
	SteadyP99Ms  float64 `json:"steadyP99Ms"`
	OverallP99Ms float64 `json:"overallP99Ms"`
	// Replans/Adopts/BlocksMoved count control activity (adaptive arm only).
	Replans     int `json:"replans,omitempty"`
	Adopts      int `json:"adopts,omitempty"`
	BlocksMoved int `json:"blocksMoved,omitempty"`
	// FinalR and FinalBaseCost describe the placement at the end of the run
	// (cost at the provisioning-time base prices, the paper's objective).
	FinalR        int     `json:"finalR"`
	FinalBaseCost float64 `json:"finalBaseCost"`
}

// RecoveryReport is the scenario's deterministic output.
type RecoveryReport struct {
	Devices, M      int     `json:"-"`
	QPS             float64 `json:"qps"`
	Seed            uint64  `json:"seed"`
	DurationMs      int64   `json:"durationMs"`
	MeasureFromMs   int64   `json:"measureFromMs"`
	StragglerDevice int     `json:"stragglerDevice"`
	OutageDevice    int     `json:"outageDevice"`

	Adaptive ArmResult `json:"adaptive"`
	Frozen   ArmResult `json:"frozen"`
	Oracle   ArmResult `json:"oracle"`

	// AdaptiveOverOracleP99 is adaptive steady p99 / oracle steady p99 (the
	// acceptance bound is ≤ 1.5); FrozenOverAdaptiveP99 is frozen steady
	// p99 / adaptive steady p99 (the bound is ≥ 2).
	AdaptiveOverOracleP99 float64 `json:"adaptiveOverOracleP99"`
	FrozenOverAdaptiveP99 float64 `json:"frozenOverAdaptiveP99"`

	// Events is the adaptive arm's decision/migration log.
	Events []string `json:"events"`
}

// RunScenario runs the three arms and compares them.
func RunScenario(cfg ScenarioConfig) (*RecoveryReport, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Replay.Validate(); err != nil {
		return nil, err
	}
	sc := &scenario{cfg: cfg, base: make([]float64, cfg.Devices), hosts: make([]Host, cfg.Devices)}
	sc.devOf = make(map[string]int, cfg.Devices)
	for j := range sc.base {
		sc.base[j] = 1 + float64(j)/float64(cfg.Devices-1)
		sc.hosts[j] = Host{Addr: "dev-" + strconv.Itoa(j), Base: sc.base[j]}
		sc.devOf[sc.hosts[j].Addr] = j
	}
	var plan0 alloc.Plan
	var err error
	if cfg.InitialR > 0 {
		plan0, err = alloc.PlanForR(alloc.Instance{M: cfg.M, Costs: sc.base}, cfg.InitialR)
	} else {
		plan0, err = alloc.TA2(alloc.Instance{M: cfg.M, Costs: sc.base})
	}
	if err != nil {
		return nil, fmt.Errorf("adapt: scenario: initial plan: %w", err)
	}
	if plan0.I < 2 {
		return nil, fmt.Errorf("adapt: scenario: degenerate initial plan (i=%d)", plan0.I)
	}
	sDev, oDev := plan0.Assignments[0].Device, plan0.Assignments[1].Device

	// The faults are timeline entries: the chronic straggler (or the
	// replayed schedule) and the outage window.
	sc.tl = &sim.Timeline{}
	if cfg.Replay != nil {
		sc.tl.Devices = cfg.Replay.Devices
	} else if cfg.StragglerAt >= 0 {
		sc.tl.Devices = make([][]sim.Step, sDev+1)
		sc.tl.Devices[sDev] = []sim.Step{{At: cfg.StragglerAt, Factor: stragglerFactor}}
	}
	if cfg.OutageAt >= 0 {
		sc.tl.Down(oDev, cfg.OutageAt, cfg.OutageAt+outageDuration)
	}

	// One arrival schedule shared by every arm: Poisson at QPS until
	// Duration.
	rng := rand.New(rand.NewPCG(cfg.Seed, 0xadab7))
	var arrivals []time.Duration
	for at := time.Duration(0); at < cfg.Duration; at += (loadgen.Poisson{}).Gap(rng, cfg.QPS) {
		arrivals = append(arrivals, at)
	}

	rep := &RecoveryReport{
		Devices: cfg.Devices, M: cfg.M,
		QPS: cfg.QPS, Seed: cfg.Seed,
		DurationMs:      cfg.Duration.Milliseconds(),
		MeasureFromMs:   cfg.measureFrom().Milliseconds(),
		StragglerDevice: sDev,
		OutageDevice:    oDev,
	}
	planner, _ := NewPlanner(cfg.M, sc.hosts, scenarioMinImprovement, scenarioCooldown)
	adaptive := &adaptivePolicy{
		est:      NewEstimator(scenarioAlpha, DefaultMinSamples, DefaultMaxFactor),
		planner:  planner,
		nextTick: scenarioReplanEvery,
	}
	rep.Frozen = sc.run("frozen", frozenPolicy{}, plan0, arrivals)
	rep.Oracle = sc.run("oracle", &oraclePolicy{at: sc.tl.Changes()}, plan0, arrivals)
	rep.Adaptive = sc.run("adaptive", adaptive, plan0, arrivals)
	rep.Events = adaptive.events
	if rep.Oracle.SteadyP99Ms > 0 {
		rep.AdaptiveOverOracleP99 = rep.Adaptive.SteadyP99Ms / rep.Oracle.SteadyP99Ms
	}
	if rep.Adaptive.SteadyP99Ms > 0 {
		rep.FrozenOverAdaptiveP99 = rep.Frozen.SteadyP99Ms / rep.Adaptive.SteadyP99Ms
	}
	return rep, nil
}

// scenario is what the three arms share: the candidate pool, its base
// costs, and the perturbation timeline.
type scenario struct {
	cfg   ScenarioConfig
	hosts []Host
	base  []float64
	devOf map[string]int
	tl    *sim.Timeline
}

// policy is a placement policy: advance moves an arm's live placement
// forward to a round starting at t.
type policy interface {
	advance(a *arm, t time.Duration)
}

// arm is one policy's serving state.
type arm struct {
	*scenario
	placement []BlockHost // live assignment, scheme block order
	// control activity (adaptive policy only)
	replans, adopts, moved int
}

// placementOf maps a plan onto host addresses in scheme block order.
func placementOf(p alloc.Plan, hosts []Host) []BlockHost {
	out := make([]BlockHost, len(p.Assignments))
	for b, as := range p.Assignments {
		out[b] = BlockHost{Block: b, Addr: hosts[as.Device].Addr, Rows: as.Rows}
	}
	return out
}

// roundTime prices one placed block's share of a round starting at t.
func (sc *scenario) roundTime(b BlockHost, t time.Duration) time.Duration {
	return sc.tl.RoundTime(sc.devOf[b.Addr], b.Rows, scenarioCols, scenarioProfile, t)
}

// down reports whether pool device j is out at t.
func (sc *scenario) down(j int, t time.Duration) bool { return sc.tl.DownUntil(j, t) > t }

// frozenPolicy never re-plans.
type frozenPolicy struct{}

func (frozenPolicy) advance(*arm, time.Duration) {}

// oraclePolicy re-runs TA2 on the true factors at every timeline change,
// applied instantly and free.
type oraclePolicy struct {
	at []time.Duration
	ix int
}

func (o *oraclePolicy) advance(a *arm, t time.Duration) {
	for ; o.ix < len(o.at) && o.at[o.ix] <= t; o.ix++ {
		now := o.at[o.ix]
		costs := make([]float64, len(a.base))
		for j := range costs {
			f := a.tl.Factor(j, now)
			if a.down(j, now) {
				f = math.Max(f, DefaultOutageFactor)
			}
			costs[j] = a.base[j] * f
		}
		if plan, err := alloc.TA2(alloc.Instance{M: a.cfg.M, Costs: costs}); err == nil {
			a.placement = placementOf(plan, a.hosts)
		}
	}
}

// adaptivePolicy is the control plane: an estimator fed from winning-attempt
// latencies, a hysteretic planner, and one migration at a time, which lands
// once its block pushes complete.
type adaptivePolicy struct {
	est       *Estimator
	planner   *Planner
	nextTick  time.Duration
	pending   []BlockHost // migration in flight, applied at pendingAt
	pendingAt time.Duration
	havePend  bool
	events    []string
}

func (p *adaptivePolicy) advance(a *arm, t time.Duration) {
	for {
		// Interleave control ticks and migration completions in time order.
		if p.havePend && p.pendingAt <= t && p.pendingAt <= p.nextTick {
			a.placement = p.pending
			p.havePend = false
			continue
		}
		if p.nextTick <= t {
			p.tick(a, p.nextTick)
			p.nextTick += scenarioReplanEvery
			continue
		}
		return
	}
}

// tick is one adaptive control cycle at virtual time t.
func (p *adaptivePolicy) tick(a *arm, t time.Duration) {
	// Feed the estimator what the straggler digest would have seen: each
	// participating device's winning-attempt latency at its true speed.
	urgent := false
	for _, b := range a.placement {
		if a.down(a.devOf[b.Addr], t) {
			urgent = true // a down device wins no attempts
			continue
		}
		p.est.ObserveLatency(b.Addr, t, a.roundTime(b, t), b.Rows)
	}
	if p.havePend {
		return // one migration at a time
	}
	factors := p.est.Factors()
	// Pin every down device to the outage factor, placed or not, as the
	// live controller does for hosts its health probe marks unhealthy.
	for j, h := range a.hosts {
		if a.down(j, t) && factors[h.Addr] < DefaultOutageFactor {
			factors[h.Addr] = DefaultOutageFactor
		}
	}
	d, err := p.planner.Decide(t, factors, a.placement, urgent)
	a.replans++
	if err != nil || !d.Adopt {
		return
	}
	a.adopts++
	p.events = append(p.events, fmt.Sprintf("t=%.2fs %s", t.Seconds(), d.Reason))

	if d.Reshape {
		scheme, err := coding.New(a.cfg.M, d.R)
		if err != nil || scheme.Devices() != len(d.Target) {
			return
		}
		next := make([]BlockHost, len(d.Target))
		var push time.Duration
		for b, addr := range d.Target {
			next[b] = BlockHost{Block: b, Addr: addr, Rows: scheme.RowsOn(b)}
			push = max(push, sim.PushTime(next[b].Rows, scenarioCols, scenarioProfile))
		}
		p.pending, p.pendingAt, p.havePend = next, t+push, true
		a.moved += len(next)
		p.events = append(p.events, fmt.Sprintf("t=%.2fs reshape to r=%d over %d devices (ready %.2fs)", t.Seconds(), d.R, len(next), (t+push).Seconds()))
		return
	}
	next := append([]BlockHost(nil), a.placement...)
	var push time.Duration
	for _, mv := range d.Moves {
		next[mv.Block].Addr = mv.To
		// Rehost pushes run one after another in the controller.
		push += sim.PushTime(next[mv.Block].Rows, scenarioCols, scenarioProfile)
		p.events = append(p.events, fmt.Sprintf("t=%.2fs rehost block %d %s → %s", t.Seconds(), mv.Block, mv.From, mv.To))
	}
	p.pending, p.pendingAt, p.havePend = next, t+push, true
	a.moved += len(d.Moves)
}

// run serves the arrival schedule under one policy, starting from plan0,
// and summarizes it. A round lasts as long as its slowest placed device.
func (sc *scenario) run(name string, pol policy, plan0 alloc.Plan, arrivals []time.Duration) ArmResult {
	a := &arm{scenario: sc, placement: placementOf(plan0, sc.hosts)}
	measureFrom := sc.cfg.measureFrom()
	var overall, steady []time.Duration
	sim.FCFS(scenarioConcurrency, arrivals, func(start time.Duration) time.Duration {
		pol.advance(a, start)
		var worst time.Duration
		for _, b := range a.placement {
			worst = max(worst, a.roundTime(b, start))
		}
		return worst
	}, func(arrive, finish time.Duration) {
		lat := finish - arrive
		overall = append(overall, lat)
		if arrive >= measureFrom {
			steady = append(steady, lat)
		}
	})
	res := ArmResult{
		Name:         name,
		Requests:     len(arrivals),
		SteadyP50Ms:  msOf(quantileDur(steady, 0.50)),
		SteadyP95Ms:  msOf(quantileDur(steady, 0.95)),
		SteadyP99Ms:  msOf(quantileDur(steady, 0.99)),
		OverallP99Ms: msOf(quantileDur(overall, 0.99)),
		Replans:      a.replans,
		Adopts:       a.adopts,
		BlocksMoved:  a.moved,
	}
	for _, b := range a.placement {
		res.FinalBaseCost += float64(b.Rows) * sc.base[sc.devOf[b.Addr]]
		res.FinalR = max(res.FinalR, b.Rows)
	}
	return res
}

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func quantileDur(v []time.Duration, q float64) time.Duration {
	if len(v) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	ix := int(math.Ceil(q*float64(len(s)))) - 1
	if ix < 0 {
		ix = 0
	}
	if ix >= len(s) {
		ix = len(s) - 1
	}
	return s[ix]
}
