package fleet

import (
	"slices"
	"strconv"
	"sync"
	"time"

	"github.com/scec/scec/internal/obs"
)

// Bounded label values (see internal/obs/names.go for the conventions).
const (
	kindVec       = "vec"
	kindMat       = "mat"
	outcomeOK     = "ok"
	outcomeFailed = "failed"
)

// sessionMetrics caches the session's metric handles. Everything is
// registered eagerly at Serve time so a scrape of a freshly provisioned
// fleet already shows every fleet series at zero — an operator can alert on
// the counters existing, not just on them moving — and so a query records
// without a single registry lookup.
type sessionMetrics struct {
	hedges      *obs.Counter
	retries     *obs.Counter
	queriesVec  *obs.Counter
	queriesMat  *obs.Counter
	qErrorsVec  *obs.Counter
	qErrorsMat  *obs.Counter
	repairsOK   *obs.Counter
	repairsFail *obs.Counter

	// Query-path handles, resolved by initServed once the fleet is
	// provisioned: the gather stage, and each logical block's
	// winner-latency histogram (indexed by block; the label set is bounded
	// by the scheme's device count).
	gather  obs.Stage
	winners []*obs.Histogram
}

func (m *sessionMetrics) init(reg *obs.Registry) {
	m.hedges = reg.Counter(obs.MetricFleetHedgesTotal,
		"Speculative (hedged) replica requests launched after the hedge delay elapsed with no verdict.")
	m.retries = reg.Counter(obs.MetricFleetRetriesTotal,
		"Replica attempts launched because a prior attempt failed (in-race failovers and backoff rounds).")
	m.queriesVec = reg.Counter(obs.MetricFleetQueriesTotal,
		"Queries served by the fleet session, by query kind.", obs.L("kind", kindVec))
	m.queriesMat = reg.Counter(obs.MetricFleetQueriesTotal,
		"Queries served by the fleet session, by query kind.", obs.L("kind", kindMat))
	m.qErrorsVec = reg.Counter(obs.MetricFleetQueryErrorsTotal,
		"Queries that failed after exhausting every replica, hedge, and retry, by query kind.", obs.L("kind", kindVec))
	m.qErrorsMat = reg.Counter(obs.MetricFleetQueryErrorsTotal,
		"Queries that failed after exhausting every replica, hedge, and retry, by query kind.", obs.L("kind", kindMat))
	m.repairsOK = reg.Counter(obs.MetricFleetRepairsTotal,
		"Self-repair pushes of a coded block to a warm standby, by outcome.", obs.L("outcome", outcomeOK))
	m.repairsFail = reg.Counter(obs.MetricFleetRepairsTotal,
		"Self-repair pushes of a coded block to a warm standby, by outcome.", obs.L("outcome", outcomeFailed))
}

func (m *sessionMetrics) queries(kind string) *obs.Counter {
	if kind == kindMat {
		return m.queriesMat
	}
	return m.queriesVec
}

func (m *sessionMetrics) queryErrors(kind string) *obs.Counter {
	if kind == kindMat {
		return m.qErrorsMat
	}
	return m.qErrorsVec
}

func (m *sessionMetrics) repairs(outcome string) *obs.Counter {
	if outcome == outcomeFailed {
		return m.repairsFail
	}
	return m.repairsOK
}

// initServed resolves the query-path handles of a session serving blocks
// logical blocks.
func (m *sessionMetrics) initServed(reg *obs.Registry, blocks int) {
	m.gather = reg.Stage(obs.StageGather)
	m.winners = make([]*obs.Histogram, blocks)
	for j := range m.winners {
		m.winners[j] = reg.Histogram(obs.MetricFleetBlockWinnerSeconds,
			"Latency of the winning replica attempt per served block fetch, by block index.",
			obs.DefLatencyBuckets, obs.L("block", strconv.Itoa(j)))
	}
}

// latencyRing keeps the last winner latencies for the adaptive hedge delay.
// Alongside the ring (insertion order, for eviction) it keeps the same
// samples sorted, updated incrementally on observe, so a percentile read is
// one index and neither path allocates.
type latencyRing struct {
	mu     sync.Mutex
	buf    [ringSize]time.Duration // insertion order
	sorted [ringSize]time.Duration // sorted[:n] ascending
	n      int                     // filled entries
	next   int                     // write cursor
}

// ringSize is how many recent winner latencies the hedge delay reads.
const ringSize = 64

// minAdaptiveSamples gates the adaptive hedge delay: below this, hedging
// falls back to DefaultHedgeAfter instead of trusting a tiny sample.
const minAdaptiveSamples = 8

func newLatencyRing() *latencyRing { return &latencyRing{} }

func (r *latencyRing) observe(d time.Duration) {
	r.mu.Lock()
	n := r.n
	if n == ringSize {
		// Evict the sample d overwrites: any equal value serves.
		i, _ := slices.BinarySearch(r.sorted[:n], r.buf[r.next])
		copy(r.sorted[i:n-1], r.sorted[i+1:n])
		n--
	}
	i, _ := slices.BinarySearch(r.sorted[:n], d)
	copy(r.sorted[i+1:n+1], r.sorted[i:n])
	r.sorted[i] = d
	r.n = n + 1
	r.buf[r.next] = d
	r.next = (r.next + 1) % ringSize
	r.mu.Unlock()
}

// percentile returns the p-quantile of the retained latencies — the
// sample at rank int(p·(n-1)) in ascending order; ok is false until
// minAdaptiveSamples observations accumulated.
func (r *latencyRing) percentile(p float64) (time.Duration, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.n < minAdaptiveSamples {
		return 0, false
	}
	return r.sorted[int(p*float64(r.n-1))], true
}
