package transport

import (
	"errors"
	"testing"
	"time"

	"github.com/scec/scec/internal/coding"
	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/matrix"
)

func TestMulMatEndToEnd(t *testing.T) {
	f := field.Prime{}
	rng := testRNG()
	const m, l, r, n = 10, 6, 4, 3

	s, err := coding.New(m, r)
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.Random[uint64](f, rng, m, l)
	enc, err := coding.Encode[uint64](f, s, a, rng)
	if err != nil {
		t.Fatal(err)
	}
	addrs, _ := startFleet[uint64](t, f, s.Devices())
	if err := (Cloud[uint64]{}).Distribute(t.Context(), addrs, enc); err != nil {
		t.Fatal(err)
	}

	client := Client[uint64]{F: f}
	code := coding.BindScheme(f, s)
	x := matrix.Random[uint64](f, rng, l, n)
	got, err := mulMat(t.Context(), client, code, addrs, x)
	if err != nil {
		t.Fatal(err)
	}
	want := matrix.Mul[uint64](f, a, x)
	if !matrix.Equal[uint64](f, got, want) {
		t.Fatal("TCP batch pipeline decoded the wrong result")
	}
}

func TestMulMatRemoteValidation(t *testing.T) {
	f := field.Prime{}
	rng := testRNG()
	s, err := coding.New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.Random[uint64](f, rng, 4, 5)
	enc, err := coding.Encode[uint64](f, s, a, rng)
	if err != nil {
		t.Fatal(err)
	}
	addrs, _ := startFleet[uint64](t, f, s.Devices())
	if err := (Cloud[uint64]{}).Distribute(t.Context(), addrs, enc); err != nil {
		t.Fatal(err)
	}
	client := Client[uint64]{F: f}
	code := coding.BindScheme(f, s)
	// Wrong X row count (needs l = 5 rows).
	if _, err := mulMat(t.Context(), client, code, addrs, matrix.New[uint64](3, 2)); !errors.Is(err, ErrRemote) {
		t.Fatalf("err = %v, want ErrRemote", err)
	}
	// Zero-column X.
	if _, err := mulMat(t.Context(), client, code, addrs, matrix.New[uint64](5, 0)); !errors.Is(err, ErrRemote) {
		t.Fatalf("zero-column err = %v, want ErrRemote", err)
	}
}

func TestMulMatBeforeStore(t *testing.T) {
	f := field.Prime{}
	s, err := coding.New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	addrs, _ := startFleet[uint64](t, f, s.Devices())
	client := Client[uint64]{F: f}
	code := coding.BindScheme(f, s)
	if _, err := mulMat(t.Context(), client, code, addrs, matrix.New[uint64](5, 2)); !errors.Is(err, ErrRemote) {
		t.Fatalf("err = %v, want ErrRemote", err)
	}
}

// TestGatherRawForCollusionScheme runs the collusion (Cauchy) scheme over
// TCP: the raw intermediate values gathered with Client.Compute decode
// through the scheme's own Gaussian decoder.
func TestGatherRawForCollusionScheme(t *testing.T) {
	f := field.Prime{}
	rng := testRNG()
	const m, l, tColl, w = 9, 4, 2, 3

	rows, r, err := coding.UniformCollusionRows(m, tColl, w)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := coding.NewCollusion[uint64](f, m, r, tColl, rows)
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.Random[uint64](f, rng, m, l)
	enc, err := cs.Encode(a, rng)
	if err != nil {
		t.Fatal(err)
	}

	addrs, _ := startFleet[uint64](t, f, cs.Devices())
	if err := (Cloud[uint64]{}).Distribute(t.Context(), addrs, enc); err != nil {
		t.Fatal(err)
	}

	client := Client[uint64]{F: f, Timeout: 2 * time.Second}
	x := matrix.RandomVec[uint64](f, rng, l)
	got, err := mulVec(t.Context(), client, cs, addrs, x)
	if err != nil {
		t.Fatal(err)
	}
	want := matrix.MulVec[uint64](f, a, x)
	if !matrix.VecEqual[uint64](f, got, want) {
		t.Fatal("collusion scheme over TCP decoded the wrong result")
	}
}

func TestDeviceStats(t *testing.T) {
	f := field.Prime{}
	rng := testRNG()
	s, err := coding.New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.Random[uint64](f, rng, 4, 3)
	enc, err := coding.Encode[uint64](f, s, a, rng)
	if err != nil {
		t.Fatal(err)
	}
	addrs, servers := startFleet[uint64](t, f, s.Devices())
	if err := (Cloud[uint64]{}).Distribute(t.Context(), addrs, enc); err != nil {
		t.Fatal(err)
	}
	client := Client[uint64]{F: f}
	code := coding.BindScheme(f, s)
	x := matrix.RandomVec[uint64](f, rng, 3)
	if _, err := mulVec(t.Context(), client, code, addrs, x); err != nil {
		t.Fatal(err)
	}
	if _, err := mulMat(t.Context(), client, code, addrs, matrix.Random[uint64](f, rng, 3, 2)); err != nil {
		t.Fatal(err)
	}
	for j, srv := range servers {
		st := srv.Stats()
		if st.Stores != 1 || st.Computes != 1 || st.BatchComputes != 1 {
			t.Fatalf("device %d stats = %+v", j, st)
		}
		wantValues := s.RowsOn(j) + s.RowsOn(j)*2
		if st.ValuesReturned != wantValues {
			t.Fatalf("device %d returned %d values, want %d", j, st.ValuesReturned, wantValues)
		}
	}
}

func TestDeviceElementCap(t *testing.T) {
	f := field.Prime{}
	srv, err := NewDeviceServerLimited(f, "127.0.0.1:0", 8)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// A 3×3 block (9 elements) exceeds the cap of 8.
	pool := NewPool[uint64]()
	cloud := Cloud[uint64]{Timeout: time.Second, Pool: pool}
	if err := cloud.Store(t.Context(), srv.Addr(), matrix.New[uint64](3, 3)); !errors.Is(err, ErrRemote) {
		t.Fatalf("oversized store err = %v, want ErrRemote", err)
	}
	// A 2×3 block (6 elements) fits.
	if err := cloud.Store(t.Context(), srv.Addr(), matrix.New[uint64](2, 3)); err != nil {
		t.Fatalf("in-cap store rejected: %v", err)
	}
	// An oversized batch request is rejected too.
	client := Client[uint64]{F: f, Timeout: time.Second, Pool: pool}
	if _, err := client.ComputeBatch(t.Context(), srv.Addr(), matrix.New[uint64](3, 4)); !errors.Is(err, ErrRemote) {
		t.Fatalf("oversized batch err = %v, want ErrRemote", err)
	}

	if _, err := NewDeviceServerLimited(f, "127.0.0.1:0", 0); err == nil {
		t.Fatal("zero cap should be rejected")
	}
}
