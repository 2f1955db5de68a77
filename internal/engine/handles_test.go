package engine

import (
	"math/rand/v2"
	"testing"

	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/obs"
)

// TestHandleQueryRecordsDecodeOnce checks that the engine is where a served
// query decodes: over the fleet executor, every MulVec and MulMat through
// Query lands exactly once in the decode stage on the engine's registry
// (the fleet session only gathers), and a decode record after first use
// allocates nothing.
func TestHandleQueryRecordsDecodeOnce(t *testing.T) {
	f := field.Prime{}
	tc := newCase[uint64](t, f, func(rng *rand.Rand) uint64 { return f.Rand(rng) })
	reg := obs.New()
	q, err := New[uint64](f, tc.enc, serveFleet(t, f, tc.enc), Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = q.Close() })
	const vecs, mats = 5, 2
	for i := 0; i < vecs; i++ {
		if _, err := q.MulVec(tc.x); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < mats; i++ {
		if _, err := q.MulMat(tc.xm); err != nil {
			t.Fatal(err)
		}
	}
	var decodes int64 = -1
	for _, fam := range reg.Snapshot().Metrics {
		for _, s := range fam.Series {
			if fam.Name == obs.MetricStageSeconds && s.Labels["stage"] == obs.StageDecode {
				decodes = s.Count
			}
		}
	}
	if decodes != vecs+mats {
		t.Errorf("decode stage count = %d, want %d", decodes, vecs+mats)
	}
	if n := testing.AllocsPerRun(100, func() { q.decode.Start().End() }); n != 0 {
		t.Fatalf("decode stage record allocates %v times per call, want 0", n)
	}
}
