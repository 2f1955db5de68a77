package fleet

import (
	"context"
	"math/rand/v2"
	"slices"
	"strconv"
	"testing"
	"time"

	"github.com/scec/scec/internal/matrix"
	"github.com/scec/scec/internal/obs"
	"github.com/scec/scec/internal/obs/trace"
)

// referencePercentile is the sort-a-copy percentile the incremental ring
// replaces: the last ringSize observations, sorted, read at int(p·(n-1)).
func referencePercentile(seen []time.Duration, p float64) (time.Duration, bool) {
	if len(seen) > ringSize {
		seen = seen[len(seen)-ringSize:]
	}
	n := len(seen)
	if n < minAdaptiveSamples {
		return 0, false
	}
	tmp := slices.Clone(seen)
	slices.Sort(tmp)
	return tmp[int(p*float64(n-1))], true
}

// TestHandleRingMatchesSortReference is the property test of the
// incremental sorted ring: over random sequences of 0–200 observations
// (wrapping the ring, with many duplicates), every percentile read matches
// the sort-the-copy reference exactly.
func TestHandleRingMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	ps := []float64{0, 0.5, 0.95, 1}
	for trial := 0; trial < 300; trial++ {
		r := newLatencyRing()
		var seen []time.Duration
		// Narrow value ranges force duplicates; wide ones force reorders.
		span := []int64{1, 4, 50, 1e9}[trial%4]
		steps := rng.IntN(201)
		for step := 0; step <= steps; step++ {
			for _, p := range ps {
				got, gotOK := r.percentile(p)
				want, wantOK := referencePercentile(seen, p)
				if got != want || gotOK != wantOK {
					t.Fatalf("trial %d after %d observations: percentile(%g) = %v,%v, want %v,%v",
						trial, len(seen), p, got, gotOK, want, wantOK)
				}
			}
			if step == steps {
				break
			}
			d := time.Duration(rng.Int64N(span))
			r.observe(d)
			seen = append(seen, d)
		}
	}
}

// TestHandleHedgeDelayAllocs guards the per-attempt hedge decision: on a
// warm adaptive ring, observing a winner and reading the hedge delay
// allocate nothing.
func TestHandleHedgeDelayAllocs(t *testing.T) {
	s := &Session[uint64]{lat: newLatencyRing()}
	s.cfg = Config{RPCTimeout: time.Second, QueryTimeout: time.Minute}
	for i := 0; i < 2*ringSize; i++ {
		s.lat.observe(time.Duration(i%17) * time.Millisecond)
	}
	var sink time.Duration
	if n := testing.AllocsPerRun(100, func() { sink += s.hedgeDelay() }); n != 0 {
		t.Fatalf("hedgeDelay allocates %v times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { s.lat.observe(3 * time.Millisecond) }); n != 0 {
		t.Fatalf("latencyRing.observe allocates %v times per call, want 0", n)
	}
	_ = sink
}

// TestHandleUntracedSpansAllocs guards the session's span sites when
// nothing traces: opening the gather and attempt spans with their
// attributes, as gather and raceReplicas do, allocates nothing.
func TestHandleUntracedSpansAllocs(t *testing.T) {
	s := &Session[uint64]{}
	ctx := context.Background()
	n := testing.AllocsPerRun(100, func() {
		_, gsp := s.startSpan(ctx, trace.SpanFleetGather,
			trace.A(trace.AttrKind, kindVec), trace.A("blocks", strconv.Itoa(3)))
		_, asp := s.startSpan(ctx, trace.SpanFleetAttempt,
			trace.A(trace.AttrDevice, "127.0.0.1:1"), trace.A(trace.AttrHedged, strconv.FormatBool(true)))
		asp.End()
		gsp.End()
	})
	if n != 0 {
		t.Fatalf("untraced fleet spans allocate %v times per query, want 0", n)
	}
}

// TestHandleWinnerObserveAllocs guards the per-block winner record. The
// handles are resolved at Serve, so an observation looks nothing up; the
// one allocation left is the retained exemplar of an attributable
// observation.
func TestHandleWinnerObserveAllocs(t *testing.T) {
	var m sessionMetrics
	m.initServed(obs.New(), 3)
	h := m.winners[2]
	if n := testing.AllocsPerRun(100, func() { h.ObserveDurationExemplar(time.Millisecond, "", "") }); n != 0 {
		t.Fatalf("winner observe allocates %v times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { h.ObserveDurationExemplar(time.Millisecond, "", "127.0.0.1:1") }); n != 1 {
		t.Fatalf("winner observe with exemplar allocates %v times per call, want 1 (the exemplar)", n)
	}
	if n := testing.AllocsPerRun(100, func() { m.gather.Start().End() }); n != 0 {
		t.Fatalf("gather stage allocates %v times per call, want 0", n)
	}
}

// histCount reads the observation count of one histogram series.
func histCount(t *testing.T, reg *obs.Registry, name, key, value string) int64 {
	t.Helper()
	for _, fam := range reg.Snapshot().Metrics {
		if fam.Name != name {
			continue
		}
		for _, s := range fam.Series {
			if s.Labels[key] == value {
				return s.Count
			}
		}
	}
	t.Fatalf("histogram %s{%s=%q} not found", name, key, value)
	return 0
}

// TestHandleSessionRecordsThroughResolvedHandles checks that the handles
// resolved at Serve are the session's registry series: every query lands
// once in the gather stage, and every block fetch once in its block's
// winner histogram. The session records no decode: the engine decodes
// (internal/engine TestHandleQueryRecordsDecodeOnce).
func TestHandleSessionRecordsThroughResolvedHandles(t *testing.T) {
	env := newTestEnv(t, 1, 0)
	s := env.serve(t)
	const vecs, mats = 5, 2
	for i := 0; i < vecs; i++ {
		if _, err := mulVec(s, env.x); err != nil {
			t.Fatal(err)
		}
	}
	xm := matrix.New[uint64](env.a.Cols(), 2)
	for i := 0; i < mats; i++ {
		if _, err := mulMat(s, xm); err != nil {
			t.Fatal(err)
		}
	}
	if got := histCount(t, env.reg, obs.MetricStageSeconds, "stage", obs.StageGather); got != vecs+mats {
		t.Errorf("stage %s count = %d, want %d", obs.StageGather, got, vecs+mats)
	}
	for _, fam := range env.reg.Snapshot().Metrics {
		for _, sr := range fam.Series {
			if fam.Name == obs.MetricStageSeconds && sr.Labels["stage"] == obs.StageDecode {
				t.Errorf("session recorded %d decodes; the engine decodes", sr.Count)
			}
		}
	}
	for j := 0; j < env.scheme.Devices(); j++ {
		if got := histCount(t, env.reg, obs.MetricFleetBlockWinnerSeconds, "block", strconv.Itoa(j)); got != vecs+mats {
			t.Errorf("block %d winner count = %d, want %d", j, got, vecs+mats)
		}
	}
}
