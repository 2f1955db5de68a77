package obs

import (
	"testing"
	"time"
)

// TestHandleStageSharesSeriesWithWrappers pins the single stage-recording
// implementation: a resolved Stage, ObserveStage and StartStage all land in
// the same histogram and last-value gauge.
func TestHandleStageSharesSeriesWithWrappers(t *testing.T) {
	r := New()
	st := r.Stage(StageGather)
	st.Observe(3 * time.Millisecond)
	ObserveStage(r, StageGather, 5*time.Millisecond)
	StartStage(r, StageGather).End()
	st.Start().End()

	labels := []Label{L("stage", StageGather)}
	s := r.find(MetricStageSeconds, labels)
	if s == nil || s.hist.Count() != 4 {
		t.Fatalf("stage histogram = %+v, want 4 observations in one series", s)
	}
	if got := r.find(MetricStageLastSeconds, labels).gauge.Value(); got >= 0.005 {
		t.Fatalf("last-value gauge %g holds an earlier observation", got)
	}
	if len(r.Snapshot().Metrics) != 2 {
		t.Fatalf("families %+v, want exactly the stage histogram and gauge", r.Snapshot().Metrics)
	}
}

// TestHandleStageNilRegistryIsDefault keeps the nil-registry convention of
// the cold-path wrappers on the handle.
func TestHandleStageNilRegistryIsDefault(t *testing.T) {
	var r *Registry
	if r.Stage(StageAllocate).hist != Default().Stage(StageAllocate).hist {
		t.Fatal("a nil registry must resolve the stage against Default()")
	}
}

// TestHandleStageObserveAllocs guards the served-path stage recording: a
// resolved handle observes and times without allocating.
func TestHandleStageObserveAllocs(t *testing.T) {
	st := New().Stage(StageDecode)
	if n := testing.AllocsPerRun(100, func() { st.Observe(time.Millisecond) }); n != 0 {
		t.Fatalf("Stage.Observe allocates %v times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { st.Start().End() }); n != 0 {
		t.Fatalf("Stage.Start().End() allocates %v times per call, want 0", n)
	}
}
