package serve

import (
	"sync/atomic"
	"time"
)

// latencyBuckets are the fixed histogram upper bounds. A final implicit
// +Inf bucket catches everything slower. Bounds span the expected range:
// sub-100µs for precomputed-payload hits up to the tail of admin reloads.
var latencyBuckets = [...]time.Duration{
	50 * time.Microsecond,
	100 * time.Microsecond,
	250 * time.Microsecond,
	500 * time.Microsecond,
	time.Millisecond,
	5 * time.Millisecond,
	25 * time.Millisecond,
	100 * time.Millisecond,
	time.Second,
}

// bucketLabels render the bounds in /debug/metrics; index len(latencyBuckets)
// is the +Inf bucket.
var bucketLabels = [...]string{
	"50us", "100us", "250us", "500us", "1ms", "5ms", "25ms", "100ms", "1s", "+inf",
}

// endpointMetrics is one endpoint's counter set. Plain atomics — no maps,
// no locks — so recording on the hot path is allocation- and
// contention-free.
type endpointMetrics struct {
	requests   atomic.Uint64
	errors     atomic.Uint64 // responses with status >= 400
	totalNanos atomic.Int64
	buckets    [len(latencyBuckets) + 1]atomic.Uint64
}

// metrics is the server's observability state. Durations are measured on
// the injected sched.Clock, so tests drive latencies with a fake clock
// and production stays on sched.Wall() — the walltime lint invariant
// holds for the serving layer too.
type metrics struct {
	endpoints [epCount]endpointMetrics
	panics    atomic.Uint64
	overloads atomic.Uint64
	rollbacks atomic.Uint64 // operator rollbacks via POST /admin/rollback
}

// observe records one finished request.
func (m *metrics) observe(ep endpoint, status int, d time.Duration) {
	em := &m.endpoints[ep]
	em.requests.Add(1)
	if status >= 400 {
		em.errors.Add(1)
	}
	em.totalNanos.Add(int64(d))
	i := 0
	for i < len(latencyBuckets) && d > latencyBuckets[i] {
		i++
	}
	em.buckets[i].Add(1)
}

// BucketCount is one histogram cell of the /debug/metrics payload.
type BucketCount struct {
	LE    string `json:"le"`
	Count uint64 `json:"count"`
}

// EndpointStats is one endpoint's row in the /debug/metrics payload.
type EndpointStats struct {
	Endpoint    string        `json:"endpoint"`
	Requests    uint64        `json:"requests"`
	Errors      uint64        `json:"errors"`
	TotalMicros int64         `json:"total_us"`
	Latency     []BucketCount `json:"latency"`
}

// SnapshotInfo describes the live snapshot in the /debug/metrics payload.
type SnapshotInfo struct {
	ID        string    `json:"id"`
	BuiltAt   time.Time `json:"built_at"`
	Countries int       `json:"countries"`
	Trackers  int       `json:"trackers"`
}

// MetricsPayload is the /debug/metrics response body. Endpoint rows are
// emitted in fixed route order, so the body's shape is deterministic.
type MetricsPayload struct {
	Snapshot  SnapshotInfo    `json:"snapshot"`
	UptimeMs  int64           `json:"uptime_ms"`
	Swaps     uint64          `json:"swaps"`
	Panics    uint64          `json:"panics"`
	Overloads uint64          `json:"overloads"`
	Rollbacks uint64          `json:"rollbacks"`
	Endpoints []EndpointStats `json:"endpoints"`
}

// collect materializes the counters for /debug/metrics. Endpoints that
// have seen no traffic are included, so the payload shape never varies.
func (m *metrics) collect() []EndpointStats {
	out := make([]EndpointStats, 0, epCount)
	for ep := endpoint(0); ep < epCount; ep++ {
		em := &m.endpoints[ep]
		row := EndpointStats{
			Endpoint:    endpointNames[ep],
			Requests:    em.requests.Load(),
			Errors:      em.errors.Load(),
			TotalMicros: em.totalNanos.Load() / int64(time.Microsecond),
			Latency:     make([]BucketCount, len(em.buckets)),
		}
		for i := range em.buckets {
			row.Latency[i] = BucketCount{LE: bucketLabels[i], Count: em.buckets[i].Load()}
		}
		out = append(out, row)
	}
	return out
}
