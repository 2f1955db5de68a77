package transport

import (
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"io"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/scec/scec/internal/coding"
	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/matrix"
	"github.com/scec/scec/internal/obs"
	"github.com/scec/scec/internal/obs/trace"
)

// rawV3Conn dials a device server and completes the v3 handshake with raw
// bytes, so the tests below pin the exact wire layout rather than trusting
// the encoder and decoder to agree with each other.
func rawV3Conn(t *testing.T, addr string, elemCode byte) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	hello := []byte{0x00, 'S', 'C', 'E', 'C', 'v', '3', '\n', 3, elemCode, 0, 0}
	if _, err := conn.Write(hello); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 12)
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatalf("read server hello: %v", err)
	}
	want := []byte{0x00, 'S', 'C', 'E', 'C', 'v', '3', '\n', 3, elemCode, 0, 0}
	if string(got) != string(want) {
		t.Fatalf("server hello = % x, want % x", got, want)
	}
	return conn
}

// readRawFrame reads one whole frame (length prefix included).
func readRawFrame(t *testing.T, conn net.Conn) []byte {
	t.Helper()
	var lenb [4]byte
	if _, err := io.ReadFull(conn, lenb[:]); err != nil {
		t.Fatalf("read frame length: %v", err)
	}
	n := binary.LittleEndian.Uint32(lenb[:])
	rest := make([]byte, n)
	if _, err := io.ReadFull(conn, rest); err != nil {
		t.Fatalf("read frame body: %v", err)
	}
	return append(lenb[:], rest...)
}

// TestWireV3PingFrameBytes pins the hello handshake and the ping exchange
// byte for byte: a wire-format change that breaks deployed peers must fail
// here, not in production.
func TestWireV3PingFrameBytes(t *testing.T) {
	srv, err := NewDeviceServer[uint64](field.Prime{}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn := rawV3Conn(t, srv.Addr(), 1)

	// Ping on stream 7: length=6 | stream=7 | opPing | tpLen=0.
	ping := []byte{6, 0, 0, 0, 7, 0, 0, 0, 1, 0}
	if _, err := conn.Write(ping); err != nil {
		t.Fatal(err)
	}
	// Response: length=10 | stream=7 | 0x81 | status=0 | spansLen=0.
	want := []byte{10, 0, 0, 0, 7, 0, 0, 0, 0x81, 0, 0, 0, 0, 0}
	if got := readRawFrame(t, conn); string(got) != string(want) {
		t.Fatalf("ping response = % x, want % x", got, want)
	}
}

// TestWireV3ComputeFrameBytes pins the store and compute frame layouts,
// including the raw little-endian element slabs, against a real server.
func TestWireV3ComputeFrameBytes(t *testing.T) {
	srv, err := NewDeviceServer[uint64](field.Prime{}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn := rawV3Conn(t, srv.Addr(), 1)

	le64 := func(vals ...uint64) []byte {
		b := make([]byte, 0, 8*len(vals))
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, v)
		}
		return b
	}
	// Store [[2 3]] on stream 1: tpLen=0 | rows=1 | cols=2 | slab.
	store := []byte{30, 0, 0, 0, 1, 0, 0, 0, 2, 0, 1, 0, 0, 0, 2, 0, 0, 0}
	store = append(store, le64(2, 3)...)
	if _, err := conn.Write(store); err != nil {
		t.Fatal(err)
	}
	wantStore := []byte{10, 0, 0, 0, 1, 0, 0, 0, 0x82, 0, 0, 0, 0, 0}
	if got := readRawFrame(t, conn); string(got) != string(wantStore) {
		t.Fatalf("store response = % x, want % x", got, wantStore)
	}

	// Compute x=[5 7] on stream 2: tpLen=0 | n=2 | slab. y = 2·5+3·7 = 31.
	comp := []byte{26, 0, 0, 0, 2, 0, 0, 0, 3, 0, 2, 0, 0, 0}
	comp = append(comp, le64(5, 7)...)
	if _, err := conn.Write(comp); err != nil {
		t.Fatal(err)
	}
	wantComp := []byte{22, 0, 0, 0, 2, 0, 0, 0, 0x83, 0, 1, 0, 0, 0}
	wantComp = append(wantComp, le64(31)...)
	wantComp = append(wantComp, 0, 0, 0, 0)
	if got := readRawFrame(t, conn); string(got) != string(wantComp) {
		t.Fatalf("compute response = % x, want % x", got, wantComp)
	}

	if got := srv.Stats(); got.Stores != 1 || got.Computes != 1 {
		t.Fatalf("server stats = %+v after raw exchanges", got)
	}
}

// TestWireV3RejectsWrongElemCode: a hello with a mismatched element code
// must be answered with an explicit rejection status, not silence.
func TestWireV3RejectsWrongElemCode(t *testing.T) {
	srv, err := NewDeviceServer[uint64](field.Prime{}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	hello := []byte{0x00, 'S', 'C', 'E', 'C', 'v', '3', '\n', 3, 2 /* byte, not uint64 */, 0, 0}
	if _, err := conn.Write(hello); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 12)
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatalf("read rejection hello: %v", err)
	}
	if got[10] != helloRejectElem {
		t.Fatalf("rejection status = %d, want %d (hello % x)", got[10], helloRejectElem, got)
	}
}

// TestGobRequestCountedMalformed writes a gob-encoded request, the
// envelope of the retired one-request-per-exchange protocol, to a device:
// it must close the connection and count it as malformed, and keep serving.
func TestGobRequestCountedMalformed(t *testing.T) {
	f := field.Prime{}
	reg := obs.New()
	srv, err := NewDeviceServerOptions[uint64](f, "127.0.0.1:0", Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	req := struct {
		Kind string
		X    []uint64
	}{Kind: "compute", X: []uint64{5, 7}}
	if err := gob.NewEncoder(conn).Encode(req); err != nil {
		t.Fatal(err)
	}
	if n, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatalf("device answered %d bytes to a gob request, want a closed connection", n)
	} else if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("device left the gob connection open")
	}
	malformed := reg.Counter(obs.MetricRPCServerRequests, "", obs.L("kind", "malformed")).Value()
	if malformed != 1 {
		t.Fatalf("malformed requests = %d, want 1", malformed)
	}
	client := Client[uint64]{F: f, Timeout: 2 * time.Second, Pool: NewPool[uint64]()}
	if err := client.Ping(t.Context(), srv.Addr()); err != nil {
		t.Fatalf("ping after the gob connection: %v", err)
	}
}

// diffReference runs the full pipeline (distribute, MulVec, MulMat) over
// the wire and requires results bit-identical to the in-process reference,
// the encoding's own ComputeAll/ComputeAllBatch followed by the code's
// decoder: the zero-copy binary codec must not change a single element for
// any field. Over the exact fields the result must also equal the
// plaintext product A·x / A·X.
func diffReference[E comparable](t *testing.T, f field.Field[E], exact bool) {
	rng := testRNG()
	const m, l, r = 8, 5, 4
	s, err := coding.New(m, r)
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.Random[E](f, rng, m, l)
	enc, err := coding.Encode[E](f, s, a, rng)
	if err != nil {
		t.Fatal(err)
	}
	code := coding.BindScheme(f, s)
	addrs, _ := startFleet[E](t, f, s.Devices())
	x := matrix.RandomVec[E](f, rng, l)
	xm := matrix.Random[E](f, rng, l, 3)

	pool := NewPool[E]()
	if err := (Cloud[E]{Timeout: 2 * time.Second, Pool: pool}).Distribute(t.Context(), addrs, enc); err != nil {
		t.Fatalf("distribute: %v", err)
	}
	client := Client[E]{F: f, Timeout: 2 * time.Second, Pool: pool}
	vec, err := mulVec(t.Context(), client, code, addrs, x)
	if err != nil {
		t.Fatalf("MulVec: %v", err)
	}
	mat, err := mulMat(t.Context(), client, code, addrs, xm)
	if err != nil {
		t.Fatalf("MulMat: %v", err)
	}

	refVec, err := code.Decode(enc.ComputeAll(f, x))
	if err != nil {
		t.Fatal(err)
	}
	refMat, err := code.DecodeBatch(enc.ComputeAllBatch(f, xm))
	if err != nil {
		t.Fatal(err)
	}
	sameVec(t, "MulVec vs reference", vec, refVec)
	sameMat(t, "MulMat vs reference", mat, refMat)
	if exact {
		sameVec(t, "MulVec vs A·x", vec, matrix.MulVec(f, a, x))
		sameMat(t, "MulMat vs A·X", mat, matrix.Mul(f, a, xm))
	}
}

// sameVec fails unless got and want are element-for-element identical (==).
func sameVec[E comparable](t *testing.T, what string, got, want []E) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s [%d]: %v != %v", what, i, got[i], want[i])
		}
	}
}

// sameMat is sameVec for matrices.
func sameMat[E comparable](t *testing.T, what string, got, want *matrix.Dense[E]) {
	t.Helper()
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
		t.Fatalf("%s: shape %dx%d != %dx%d", what, got.Rows(), got.Cols(), want.Rows(), want.Cols())
	}
	sameVec(t, what, got.RowsView(0, got.Rows()), want.RowsView(0, want.Rows()))
}

// TestProtocolsBitIdentical covers all three concrete element types; the
// comparisons are exact (==), not tolerance-based, pinning that the wire
// moves identical bits end to end.
func TestProtocolsBitIdentical(t *testing.T) {
	t.Run("prime", func(t *testing.T) { diffReference[uint64](t, field.Prime{}, true) })
	t.Run("gf256", func(t *testing.T) { diffReference[byte](t, field.GF256{}, true) })
	t.Run("real", func(t *testing.T) { diffReference[float64](t, field.Real{Tol: 1e-9}, false) })
}

// TestV3RemoteErrorStrings pins that a device's validation failure arrives
// as ErrRemote carrying the device's exact message and address.
func TestV3RemoteErrorStrings(t *testing.T) {
	f := field.Prime{}
	srv, err := NewDeviceServer[uint64](f, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client := Client[uint64]{F: f, Timeout: 2 * time.Second, Pool: NewPool[uint64]()}
	_, err = client.Compute(t.Context(), srv.Addr(), []uint64{1})
	if !errors.Is(err, ErrRemote) {
		t.Fatalf("compute before store: err = %v, want ErrRemote", err)
	}
	want := "transport: remote error: " + srv.Addr() + ": compute: no coded block stored"
	if err.Error() != want {
		t.Fatalf("error text:\n  got:  %s\n  want: %s", err, want)
	}
}

// TestV3ElementCap: an over-cap store must fail with the device's cap
// message and leave the connection healthy for the next request.
func TestV3ElementCap(t *testing.T) {
	f := field.Prime{}
	srv, err := NewDeviceServerLimited[uint64](f, "127.0.0.1:0", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pool := NewPool[uint64]()
	cloud := Cloud[uint64]{Timeout: 2 * time.Second, Pool: pool}
	big := matrix.FromSlice(3, 2, make([]uint64, 6))
	err = cloud.Store(t.Context(), srv.Addr(), big)
	if err == nil {
		t.Fatal("over-cap store succeeded")
	}
	want := "store: block of 6 elements exceeds the device cap of 4"
	if got := err.Error(); !strings.Contains(got, want) {
		t.Fatalf("err %q does not contain %q", got, want)
	}
	// The connection survived the drained over-cap payload.
	small := matrix.FromSlice(2, 2, []uint64{1, 2, 3, 4})
	if err := cloud.Store(t.Context(), srv.Addr(), small); err != nil {
		t.Fatalf("in-cap store after over-cap failure: %v", err)
	}
	if got := srv.StoredRows(); got != 2 {
		t.Fatalf("stored rows = %d, want 2", got)
	}
}

// TestV3TracedExchange: the device's spans must ride the v3 response
// trailer back into the client's trace.
func TestV3TracedExchange(t *testing.T) {
	f := field.Prime{}
	devTr := trace.New(trace.Options{Service: "device"})
	srv, err := NewDeviceServerOptions[uint64](f, "127.0.0.1:0", Options{Tracer: devTr})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pool := NewPool[uint64]()
	cloud := Cloud[uint64]{Timeout: 2 * time.Second, Pool: pool}
	if err := cloud.Store(t.Context(), srv.Addr(), matrix.FromSlice(1, 2, []uint64{1, 1})); err != nil {
		t.Fatal(err)
	}
	tr := trace.New(trace.Options{Service: "user"})
	ctx, root := tr.StartRoot(context.Background(), "query")
	client := Client[uint64]{F: f, Timeout: 2 * time.Second, Pool: pool}
	if _, err := client.Compute(ctx, srv.Addr(), []uint64{4, 9}); err != nil {
		t.Fatal(err)
	}
	root.End()
	names := map[string]int{}
	for _, sd := range tr.Snapshot() {
		names[sd.Name]++
	}
	if names[trace.SpanRPCServer] != 1 || names[trace.SpanDeviceCompute] != 1 {
		t.Fatalf("v3 exchange did not adopt device spans: %v", names)
	}
}
