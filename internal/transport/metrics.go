package transport

import (
	"net"
	"sync/atomic"
	"time"

	"github.com/scec/scec/internal/obs"
)

// countingConn wraps a net.Conn and counts bytes in each direction. Each
// side of the protocol drives a connection from a single goroutine, so the
// counters are plain ints read only after the exchange finishes.
type countingConn struct {
	net.Conn
	read, written int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read += int64(n)
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.written += int64(n)
	return n, err
}

func metricsOrDefault(r *obs.Registry) *obs.Registry {
	if r == nil {
		return obs.Default()
	}
	return r
}

// metricDesc is one metric family's name and help text.
type metricDesc struct{ name, help string }

// rpcDescs names one side's five per-kind RPC families. reqBytes and
// respBytes count the bytes of requests and of responses: sent and received
// on the client, read and written on the server.
type rpcDescs struct {
	requests, errors, seconds, reqBytes, respBytes metricDesc
}

var clientRPC = rpcDescs{
	requests:  metricDesc{obs.MetricRPCClientRequests, "RPC round trips issued by the user/cloud role, by request kind."},
	errors:    metricDesc{obs.MetricRPCClientErrors, "Failed RPC round trips (dial, deadline, transport, or remote errors), by request kind."},
	seconds:   metricDesc{obs.MetricRPCClientSeconds, "RPC round-trip latency in seconds as seen by the user/cloud role, by request kind."},
	reqBytes:  metricDesc{obs.MetricRPCClientSent, "Bytes written to the wire by the user/cloud role, by request kind."},
	respBytes: metricDesc{obs.MetricRPCClientReceived, "Bytes read from the wire by the user/cloud role, by request kind."},
}

var serverRPC = rpcDescs{
	requests:  metricDesc{obs.MetricRPCServerRequests, "Requests handled by the device server, by request kind (malformed = undecodable)."},
	errors:    metricDesc{obs.MetricRPCServerErrors, "Requests the device server rejected or failed to parse, by request kind."},
	seconds:   metricDesc{obs.MetricRPCServerSeconds, "Request handling latency in seconds on the device server, by request kind."},
	reqBytes:  metricDesc{obs.MetricRPCServerRead, "Bytes read from the wire by the device server, by request kind."},
	respBytes: metricDesc{obs.MetricRPCServerWritten, "Bytes written to the wire by the device server, by request kind."},
}

// rpcMetrics is one registry's per-kind RPC handle table for one side of
// the wire. A kind's series are resolved on its first request, and its
// error counter on its first failure — when a per-call lookup would have
// minted them — so a scrape never shows a kind that saw no traffic; every
// later request records through the cached handles without a lookup.
type rpcMetrics struct {
	reg   *obs.Registry
	desc  *rpcDescs
	kinds [numKinds]atomic.Pointer[kindSeries]
}

// kindSeries is one request kind's resolved RPC series.
type kindSeries struct {
	label               obs.Label
	requests            *obs.Counter
	errors              atomic.Pointer[obs.Counter]
	seconds             *obs.Histogram
	reqBytes, respBytes *obs.Counter
}

func newRPCMetrics(reg *obs.Registry, desc *rpcDescs) *rpcMetrics {
	return &rpcMetrics{reg: metricsOrDefault(reg), desc: desc}
}

// record accounts one request of kind k: its latency, the bytes of the
// request and of its response, and whether it failed.
func (m *rpcMetrics) record(k rpcKind, d time.Duration, reqBytes, respBytes int64, failed bool) {
	ks := m.kinds[k].Load()
	if ks == nil {
		ks = m.resolve(k)
	}
	ks.requests.Inc()
	if failed {
		m.errorsOf(ks).Inc()
	}
	ks.seconds.ObserveDuration(d)
	ks.reqBytes.Add(reqBytes)
	ks.respBytes.Add(respBytes)
}

// resolve looks kind k's series up once. Racing first uses resolve the
// same registry series; the first table entry stored wins.
func (m *rpcMetrics) resolve(k rpcKind) *kindSeries {
	d := m.desc
	ks := &kindSeries{label: obs.L("kind", k.String())}
	ks.requests = m.reg.Counter(d.requests.name, d.requests.help, ks.label)
	ks.seconds = m.reg.Histogram(d.seconds.name, d.seconds.help, obs.DefLatencyBuckets, ks.label)
	ks.reqBytes = m.reg.Counter(d.reqBytes.name, d.reqBytes.help, ks.label)
	ks.respBytes = m.reg.Counter(d.respBytes.name, d.respBytes.help, ks.label)
	if !m.kinds[k].CompareAndSwap(nil, ks) {
		return m.kinds[k].Load()
	}
	return ks
}

// errorsOf returns the kind's error counter, resolving it on first failure.
func (m *rpcMetrics) errorsOf(ks *kindSeries) *obs.Counter {
	if c := ks.errors.Load(); c != nil {
		return c
	}
	c := m.reg.Counter(m.desc.errors.name, m.desc.errors.help, ks.label)
	ks.errors.Store(c)
	return c
}
