package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/gamma-suite/gamma/internal/serve"
)

// readKind is the answer a read in the mix must get.
type readKind uint8

const (
	readPlain       readKind = iota // 200, the live body
	readConditional                 // If-None-Match with the payload's ETag: 304
	readHistory                     // ?snapshot=<previous id>: 200 from the previous generation
	readUnknown                     // a path the API does not serve: 404
)

// readSpec is one request of the mix with the answer it must get.
type readSpec struct {
	kind   readKind
	target string // path; a history read adds the previous generation's query
	inm    string // If-None-Match of a conditional read
	body   []byte // expected body of a 200
	etag   string // expected ETag of a 200 or 304
}

// The read mix. Nothing in the repository records how clients use /v1, so
// the mix follows the simplest rule the workload allows rather than
// guessed shares: a read picks an endpoint uniformly from those the
// snapshot serves, except that which tracker profile it reads follows
// Zipf's law with exponent 1 over a seeded ranking of the domains (a few
// trackers are read often, most rarely). On top of that, the shares the
// workload prescribes: ~20% revalidate with If-None-Match, ~5% read the
// previous generation and ~2% ask for an unknown path.
const (
	shareUnknown = 0.02
	shareHistory = 0.05
	shareRevalid = 0.20
	mixSize      = 1 << 14
)

var unknownPaths = []string{
	"/v1/countries/zz", "/v1/trackers/no-such-tracker.invalid",
	"/v1/figures/fig99", "/v1/nope",
}

// zipf draws ranks 0..n-1 with probability proportional to 1/(rank+1).
type zipf struct{ cum []float64 }

func newZipf(n int) zipf {
	z := zipf{cum: make([]float64, n)}
	total := 0.0
	for k := range z.cum {
		total += 1 / float64(k+1)
		z.cum[k] = total
	}
	return z
}

func (z zipf) draw(r *rand.Rand) int {
	return min(sort.SearchFloat64s(z.cum, r.Float64()*z.cum[len(z.cum)-1]), len(z.cum)-1)
}

// buildMix draws the read mix from the seed. live answers plain and
// conditional reads, prev history reads; etags are the ETags the server
// sent for each live path.
func buildMix(seed uint64, live, prev *serve.Snapshot, etags map[string]string) ([]readSpec, error) {
	var trackers, others []string
	for _, p := range live.Endpoints() {
		if strings.HasPrefix(p, "/v1/trackers/") {
			trackers = append(trackers, p)
		} else {
			others = append(others, p)
		}
	}
	if len(trackers) == 0 || len(others) == 0 {
		return nil, fmt.Errorf("snapshot serves too few endpoints for the read mix")
	}
	r := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	rank := r.Perm(len(trackers))
	popularity := newZipf(len(trackers))

	mix := make([]readSpec, mixSize)
	for i := range mix {
		var path string
		if k := r.IntN(len(trackers) + len(others)); k < len(trackers) {
			path = trackers[rank[popularity.draw(r)]]
		} else {
			path = others[k-len(trackers)]
		}
		spec := readSpec{kind: readPlain, target: path, etag: etags[path]}
		spec.body, _ = live.Body(path)
		switch u := r.Float64(); {
		case u < shareUnknown:
			spec = readSpec{kind: readUnknown, target: unknownPaths[r.IntN(len(unknownPaths))]}
		case u < shareUnknown+shareHistory:
			spec.kind = readHistory
			spec.body, _ = prev.Body(path)
		case u < shareUnknown+shareHistory+shareRevalid:
			spec.kind = readConditional
			spec.inm = spec.etag
			spec.body = nil
		}
		mix[i] = spec
	}
	return mix, nil
}

// learnETags reads every live endpoint once, checks its body against the
// snapshot, and returns the ETag the server sent for each path.
func learnETags(c *conn, snap *serve.Snapshot) (map[string]string, error) {
	etags := map[string]string{}
	for _, p := range snap.Endpoints() {
		status, err := c.roundTrip(http.MethodGet, p, "", "", 0)
		if err != nil {
			return nil, err
		}
		want, _ := snap.Body(p)
		if status != http.StatusOK || len(c.etag) == 0 || !bytes.Equal(c.body, want) {
			return nil, fmt.Errorf("GET %s: status %d, body differs from the snapshot", p, status)
		}
		etags[p] = string(c.etag)
	}
	return etags, nil
}

// generations names the snapshots a server has installed, oldest first,
// so that a read can check which generation answered it (the
// X-Gamma-Snapshot header) and a history read can address the generation
// before the live one. serve-read installs two and keeps them; the reload
// workload names one more in every reload.
type generations struct {
	mu      sync.Mutex
	ids     []string // by generation; named before it is installed
	queries []string // "?snapshot=" and the escaped id, by generation
	// installed generations are known to be live or retained: the live one
	// is at least ids[installed-1] and at most the last one named.
	installed int
}

// newGenerations records installed generations, oldest first. Reads need
// at least two, so that the live one has a predecessor.
func newGenerations(ids ...string) *generations {
	g := &generations{}
	for _, id := range ids {
		g.name(id)
	}
	g.confirm()
	return g
}

// name adds the next generation, before it is installed.
func (g *generations) name(id string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.ids = append(g.ids, id)
	g.queries = append(g.queries, "?snapshot="+url.QueryEscape(id))
}

// confirm records that every generation named so far is installed.
func (g *generations) confirm() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.installed = len(g.ids)
}

// current returns the oldest generation that may be live now, and the
// query that addresses the one before it. The history ring keeps the live
// generation and at least its three predecessors, so the addressed one
// stays readable while up to two more reloads install.
func (g *generations) current() (oldest int, previous string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.installed - 1, g.queries[g.installed-2]
}

// answeredBy reports whether id names a generation in [from, to); to < 0
// means up to the last one named.
func (g *generations) answeredBy(id []byte, from, to int) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if to < 0 {
		to = len(g.ids)
	}
	for k := from; k < to; k++ {
		if string(id) == g.ids[k] {
			return true
		}
	}
	return false
}

// readStats are the outcomes of a set of reads.
type readStats struct {
	attempted, failed        int64
	status200, status304     int64
	status404, statusOther   int64
	conditional, revalidated int64
}

func (s *readStats) merge(o readStats) {
	s.attempted += o.attempted
	s.failed += o.failed
	s.status200 += o.status200
	s.status304 += o.status304
	s.status404 += o.status404
	s.statusOther += o.statusOther
	s.conditional += o.conditional
	s.revalidated += o.revalidated
}

// reader sends reads on one connection and checks every answer.
type reader struct {
	c     *conn
	tr    *tracer
	gens  *generations
	live  int // oldest generation that may answer the read in flight
	stats readStats
}

// do sends one read and returns when its body has been read. Checking the
// answer happens after the caller has taken its timestamp.
func (rd *reader) do(spec *readSpec) (int, error) {
	var query string
	rd.live, query = rd.gens.current()
	if spec.kind != readHistory {
		query = ""
	}
	if rd.tr == nil {
		return rd.c.roundTrip(http.MethodGet, spec.target, query, spec.inm, 0)
	}
	id, start := rd.tr.reserve(), rd.tr.now()
	status, err := rd.c.roundTrip(http.MethodGet, spec.target, query, spec.inm, id)
	rd.tr.record(span{id: id, op: id, name: spanRead, start: start, end: rd.tr.now()})
	return status, err
}

// check counts one answer against its spec: its status, ETag and body,
// and the generation that answered it.
func (rd *reader) check(spec *readSpec, status int, err error) {
	s := &rd.stats
	s.attempted++
	switch status {
	case http.StatusOK:
		s.status200++
	case http.StatusNotModified:
		s.status304++
	case http.StatusNotFound:
		s.status404++
	default:
		s.statusOther++
	}
	var ok bool
	switch spec.kind {
	case readPlain:
		ok = status == http.StatusOK && string(rd.c.etag) == spec.etag && bytes.Equal(rd.c.body, spec.body) &&
			rd.gens.answeredBy(rd.c.snap, rd.live, -1)
	case readHistory:
		ok = status == http.StatusOK && string(rd.c.etag) == spec.etag && bytes.Equal(rd.c.body, spec.body) &&
			rd.gens.answeredBy(rd.c.snap, rd.live-1, rd.live)
	case readConditional:
		s.conditional++
		if status == http.StatusNotModified {
			s.revalidated++
		}
		ok = status == http.StatusNotModified && string(rd.c.etag) == spec.etag && len(rd.c.body) == 0 &&
			rd.gens.answeredBy(rd.c.snap, rd.live, -1)
	case readUnknown:
		ok = status == http.StatusNotFound
	}
	if err != nil || !ok {
		s.failed++
	}
}

// openRun is one open-loop phase: reads are due at a fixed rate whether
// or not earlier ones have been answered, and each is timed from when it
// was due. The Go runtime wakes a sleeping goroutine up to a millisecond
// late when the process is idle, longer than a read takes, so latency is
// reconstructed for an on-time sender: each connection's measured service
// times (send to last body byte) are replayed from the due times, so the
// wait a slow read imposes on the reads queued behind it counts, and the
// sender's timer lateness does not. Sender lateness beyond the timer's
// resolution does count: then the process was starved of CPU, and a read
// sent on time would have waited out the same starvation in the server.
type openRun struct {
	lat, late samples // seconds; indexed by schedule position
	period    time.Duration
	stats     readStats
}

// timerResolution bounds how late the Go runtime wakes an idle sleeper:
// it rounds the wait up to whole milliseconds, and the OS adds its own
// wake-up delay.
const timerResolution = 2 * time.Millisecond

// openLoop sends reads due at rate per second for d, spread round-robin
// over the readers, one connection and one goroutine each. Read i of the
// phase uses mix[(offset+i) % len(mix)].
func openLoop(readers []*reader, mix []readSpec, offset int, rate float64, d time.Duration) *openRun {
	total := max(int(rate*d.Seconds()), len(readers))
	period := time.Duration(float64(time.Second) / rate)
	run := &openRun{lat: make(samples, total), late: make(samples, total), period: period}
	t0 := time.Now()
	var wg sync.WaitGroup
	for g, rd := range readers {
		wg.Add(1)
		go func(g int, rd *reader) {
			defer wg.Done()
			var done, ideal time.Time // last answer: real, and on the ideal schedule
			for i := g; i < total; i += len(readers) {
				due := t0.Add(time.Duration(i) * period)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				spec := &mix[(offset+i)%len(mix)]
				sent := time.Now()
				status, err := rd.do(spec)
				now := time.Now()
				// An on-time sender sends when the read is due or when its
				// connection frees up, whichever is later.
				late := sent.Sub(maxTime(due, done))
				ideal = maxTime(due, ideal).Add(now.Sub(sent) + max(late-timerResolution, 0))
				run.lat[i] = ideal.Sub(due).Seconds()
				run.late[i] = late.Seconds()
				done = now
				rd.check(spec, status, err)
			}
		}(g, rd)
	}
	wg.Wait()
	for _, rd := range readers {
		run.stats.merge(rd.stats)
		rd.stats = readStats{}
	}
	return run
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// perSecond is the q-quantile latency of each second's reads (by due
// time), in ms, median over the seconds of the phase: the tail a client
// sees in a typical second, which one stall of the host does not move.
func (o *openRun) perSecond(q float64) float64 {
	per := max(int(time.Second/o.period), 1)
	var qs samples
	for i := 0; i+per <= len(o.lat); i += per {
		qs = append(qs, o.lat[i:i+per].quantile(q))
	}
	if len(qs) == 0 {
		return o.lat.quantile(q) * 1e3
	}
	return qs.median() * 1e3
}

// closedWindow is the interval closedLoop counts answers over. Short
// windows keep a stall of the host inside few of them, and the median
// over the windows leaves those out.
const closedWindow = 100 * time.Millisecond

// closedLoop sends reads back to back on every reader for d (at least one
// window) and returns the rate at which reads were answered in each whole
// window, per second: the throughput at which the server saturates with
// this many connections.
func closedLoop(readers []*reader, mix []readSpec, offset int, d time.Duration) (samples, readStats) {
	windows := max(int(d/closedWindow), 1)
	counts := make([][]int, len(readers))
	start := time.Now()
	var wg sync.WaitGroup
	for g, rd := range readers {
		counts[g] = make([]int, windows)
		wg.Add(1)
		go func(g int, rd *reader) {
			defer wg.Done()
			for i := offset + g; ; i += len(readers) {
				spec := &mix[i%len(mix)]
				status, err := rd.do(spec)
				rd.check(spec, status, err)
				w := int(time.Since(start) / closedWindow)
				if w >= windows {
					return
				}
				counts[g][w]++
			}
		}(g, rd)
	}
	wg.Wait()
	var stats readStats
	for _, rd := range readers {
		stats.merge(rd.stats)
		rd.stats = readStats{}
	}
	rates := make(samples, windows)
	for _, c := range counts {
		for w, n := range c {
			rates[w] += float64(n) / closedWindow.Seconds()
		}
	}
	return rates, stats
}

// lateGrowth is how much later reads were answered, against their due
// times, in the last quarter of the phase than in the first (median to
// median): a backlog that grows because the server cannot keep up.
func (o *openRun) lateGrowth() float64 {
	q := len(o.lat) / 4
	if q == 0 {
		return 0
	}
	return o.lat[len(o.lat)-q:].median() - o.lat[:q].median()
}
