package transport

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"github.com/scec/scec/internal/obs"
)

// kindCount reads one kind's series of a family from a snapshot: the
// number of series carrying that kind label, and their summed value
// (counters) or count (histograms).
func kindCount(snap obs.Snapshot, name string, kind rpcKind) (series int, total float64) {
	for _, fam := range snap.Metrics {
		if fam.Name != name {
			continue
		}
		for _, s := range fam.Series {
			if s.Labels["kind"] != kind.String() {
				continue
			}
			series++
			if fam.Type == "histogram" {
				total += float64(s.Count)
			} else {
				total += s.Value
			}
		}
	}
	return series, total
}

// TestHandleRPCRecordAllocs guards the per-RPC bookkeeping: after a kind's
// first use, recording a client round trip (handle-table lookup on the
// pool included) or a server request allocates nothing, failed or not.
func TestHandleRPCRecordAllocs(t *testing.T) {
	reg := obs.New()
	pool := NewPool[uint64]()
	srv := newRPCMetrics(reg, &serverRPC)
	for k := rpcKind(0); k < numKinds; k++ {
		for _, failed := range []bool{false, true} {
			client := func() { pool.clientMetrics(reg).record(k, time.Millisecond, 64, 128, failed) }
			server := func() { srv.record(k, time.Millisecond, 128, 64, failed) }
			client()
			server()
			if n := testing.AllocsPerRun(100, client); n != 0 {
				t.Errorf("client record kind=%s failed=%v: %v allocs per call, want 0", k, failed, n)
			}
			if n := testing.AllocsPerRun(100, server); n != 0 {
				t.Errorf("server record kind=%s failed=%v: %v allocs per call, want 0", k, failed, n)
			}
		}
	}
}

// TestHandleRPCConcurrentFirstUse races many goroutines through the first
// use of one kind on a fresh registry: the handle table must settle on one
// series per family, and no observation may be lost to the race.
func TestHandleRPCConcurrentFirstUse(t *testing.T) {
	const goroutines, per = 16, 50
	reg := obs.New()
	pool := NewPool[uint64]()
	srv := newRPCMetrics(reg, &serverRPC)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < per; i++ {
				failed := i%5 == 0
				pool.clientMetrics(reg).record(kindCompute, time.Millisecond, 3, 5, failed)
				srv.record(kindCompute, time.Millisecond, 5, 3, failed)
			}
		}()
	}
	close(start)
	wg.Wait()

	snap := reg.Snapshot()
	const n = goroutines * per
	for _, c := range []struct {
		name string
		want float64
	}{
		{obs.MetricRPCClientRequests, n},
		{obs.MetricRPCClientErrors, n / 5},
		{obs.MetricRPCClientSeconds, n},
		{obs.MetricRPCClientSent, 3 * n},
		{obs.MetricRPCClientReceived, 5 * n},
		{obs.MetricRPCServerRequests, n},
		{obs.MetricRPCServerErrors, n / 5},
		{obs.MetricRPCServerSeconds, n},
		{obs.MetricRPCServerRead, 5 * n},
		{obs.MetricRPCServerWritten, 3 * n},
	} {
		series, total := kindCount(snap, c.name, kindCompute)
		if series != 1 || total != c.want {
			t.Errorf("%s{kind=compute}: %d series totalling %g, want 1 series totalling %g", c.name, series, total, c.want)
		}
	}
}

// TestHandleRPCMintedOnFirstUse keeps the scrape contract of per-call
// lookups: a handle table mints nothing up front, a kind's series appear on
// its first request, and its error counter only on its first failure.
func TestHandleRPCMintedOnFirstUse(t *testing.T) {
	reg := obs.New()
	m := newRPCMetrics(reg, &clientRPC)
	if fams := reg.Snapshot().Metrics; len(fams) != 0 {
		t.Fatalf("an unused handle table minted %d families", len(fams))
	}
	m.record(kindPing, time.Millisecond, 1, 1, false)
	snap := reg.Snapshot()
	if series, _ := kindCount(snap, obs.MetricRPCClientRequests, kindPing); series != 1 {
		t.Fatal("first ping did not mint its request series")
	}
	if series, _ := kindCount(snap, obs.MetricRPCClientRequests, kindStore); series != 0 {
		t.Fatal("a kind with no traffic was minted")
	}
	if series, _ := kindCount(snap, obs.MetricRPCClientErrors, kindPing); series != 0 {
		t.Fatal("a kind with no failure minted its error series")
	}
	m.record(kindPing, time.Millisecond, 1, 1, true)
	if _, total := kindCount(reg.Snapshot(), obs.MetricRPCClientErrors, kindPing); total != 1 {
		t.Fatalf("error count after the first failure = %g, want 1", total)
	}
}

// TestHandleUntracedClientSpanIsNil pins the untraced fast path: with no
// span in the context there is no finish callback to allocate or call.
func TestHandleUntracedClientSpanIsNil(t *testing.T) {
	ctx := context.Background()
	req := &request[uint64]{op: opPing}
	if _, finish := startClientSpan(ctx, "127.0.0.1:1", req); finish != nil {
		t.Fatal("untraced round trip got a finish callback")
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = startClientSpan(ctx, "127.0.0.1:1", req) }); n != 0 {
		t.Fatalf("untraced startClientSpan allocates %v times per call, want 0", n)
	}
	if req.tp != "" {
		t.Fatal("untraced round trip carries a traceparent")
	}
}

// TestHandleFrameReaderAllocs pins the frame readers' allocations per
// frame: a compute request decodes into its request and its x slab, a
// compute response into its response and its y slab. Header fields,
// dimensions and status bytes are read in place from the bufio.Reader.
func TestHandleFrameReaderAllocs(t *testing.T) {
	cod, _ := codecFor[uint64]()
	le64 := func(vals ...uint64) []byte {
		var b []byte
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, v)
		}
		return b
	}
	// Compute x=[5 7] on stream 2, and its response y=[31] with no spans.
	req := append([]byte{26, 0, 0, 0, 2, 0, 0, 0, opCompute, 0, 2, 0, 0, 0}, le64(5, 7)...)
	resp := append(append([]byte{22, 0, 0, 0, 2, 0, 0, 0, opCompute | opResponseBit, 0, 1, 0, 0, 0}, le64(31)...), 0, 0, 0, 0)
	var rd bytes.Reader
	br := bufio.NewReader(&rd)
	if n := testing.AllocsPerRun(100, func() {
		rd.Reset(req)
		br.Reset(&rd)
		if r, err := readRequestFrame[uint64](br, cod, DefaultMaxElements); err != nil || len(r.x) != 2 {
			t.Fatalf("request frame: %v", err)
		}
	}); n != 2 {
		t.Errorf("readRequestFrame allocates %v times per compute frame, want 2 (request, x)", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		rd.Reset(resp)
		br.Reset(&rd)
		if _, r, err := readResponseFrame[uint64](br, cod); err != nil || len(r.y) != 1 || r.y[0] != 31 {
			t.Fatalf("response frame: %v", err)
		}
	}); n != 2 {
		t.Errorf("readResponseFrame allocates %v times per compute frame, want 2 (response, y)", n)
	}
}
