package main

import (
	"bufio"
	"compress/gzip"
	"context"
	"fmt"
	"net/netip"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	gamma "github.com/gamma-suite/gamma"
	"github.com/gamma-suite/gamma/internal/core"
	"github.com/gamma-suite/gamma/internal/tracert"
)

// spanName labels a span with the layer boundary it times. It is a small
// integer so that a span holds no pointers and a run's spans cost the
// garbage collector nothing to scan.
type spanName uint8

const (
	spanStudy         spanName = iota // gamma.RunStudyWithOptions, entry to return
	spanTargets                       // study entry → first EnvHook call (world build, target selection)
	spanCampaign                      // first EnvHook call → last measurement call's return
	spanVolunteer                     // EnvHook call → the volunteer's last measurement call's return
	spanLoad                          // C1 Browser.Load
	spanResolve                       // C2 Resolver.Resolve / ResolveChain
	spanReverse                       // C2 Resolver.Reverse
	spanProbe                         // C3 Prober.Traceroute: simulate, render, parse
	spanTail                          // last measurement call's return → study return (Box-2 analysis)
	spanReload                        // client round trip of POST /admin/reload
	spanReloadHandler                 // Server.ServeHTTP for the reload
	spanCallback                      // the Options.Reload callback
	spanWorldBuild                    // gamma.NewWorld
	spanDatasetLoad                   // one core.LoadDataset
	spanProcess                       // gamma.AnalyzeWithWorkers
	spanSnapshotBuild                 // serve.Build
	spanRead                          // client round trip of one GET
	spanHandler                       // Server.ServeHTTP for a read
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"study", "worldgen.targets", "core.campaign", "core.volunteer",
	"browser.load", "dnssim.resolve", "dnssim.reverse", "tracert.probe",
	"pipeline.tail", "reload", "serve.reload", "reload.callback",
	"worldgen.build", "core.load", "pipeline.process", "serve.build",
	"read", "serve.handler",
}

// span is one timed interval. Spans of one operation (a study, a reload,
// a read) share op, the id of the operation's root span.
type span struct {
	id, parent, op int32
	name           spanName
	start, end     int64 // nanoseconds since the tracer's base
}

func (s span) dur() time.Duration { return time.Duration(s.end - s.start) }

// tracer records spans in memory for the traced run. A nil *tracer is the
// untraced run: callers test for nil before taking any timestamp, so an
// untraced run pays nothing.
type tracer struct {
	base time.Time
	next atomic.Int32

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// reserve hands out a span id before the span ends, so children can name
// their parent while it is still open.
func (t *tracer) reserve() int32 { return t.next.Add(1) }

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// add records a finished span under a fresh id and returns the id.
func (t *tracer) add(name spanName, parent, op int32, start, end int64) int32 {
	id := t.reserve()
	t.record(span{id: id, parent: parent, op: op, name: name, start: start, end: end})
	return id
}

// layerStats is the per-layer view of a run's spans: each span's
// duration, and its self time (duration minus its children's durations;
// children of one span never overlap here, since every traced parent runs
// its children one after another).
type layerStats struct {
	dur  [numSpanNames]samples // seconds
	self [numSpanNames]samples // seconds
	// byOp is the total duration of each name within one operation, so a
	// per-operation sum (23 dataset loads in one reload) is one sample.
	byOp    [numSpanNames]map[int32]float64
	longest [numSpanNames]map[int32]float64
}

func (t *tracer) layers() *layerStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[int32]int64)
	for _, s := range t.spans {
		if s.parent != 0 {
			child[s.parent] += s.end - s.start
		}
	}
	ls := &layerStats{}
	for i := range ls.byOp {
		ls.byOp[i] = map[int32]float64{}
		ls.longest[i] = map[int32]float64{}
	}
	for _, s := range t.spans {
		d := s.dur().Seconds()
		ls.dur[s.name] = append(ls.dur[s.name], d)
		ls.self[s.name] = append(ls.self[s.name], d-time.Duration(child[s.id]).Seconds())
		ls.byOp[s.name][s.op] += d
		ls.longest[s.name][s.op] = max(ls.longest[s.name][s.op], d)
	}
	return ls
}

// maxPerOp returns one sample per operation: its longest span of that
// name (for volunteers, the campaign's critical path).
func (ls *layerStats) maxPerOp(n spanName) samples {
	out := make(samples, 0, len(ls.longest[n]))
	for _, v := range ls.longest[n] {
		out = append(out, v)
	}
	return out
}

// perOp returns one sample per operation: the summed duration of every
// span of that name in it.
func (ls *layerStats) perOp(n spanName) samples {
	out := make(samples, 0, len(ls.byOp[n]))
	for _, v := range ls.byOp[n] {
		out = append(out, v)
	}
	return out
}

// write saves the spans as gzipped tab-separated lines, one span each.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	bw := bufio.NewWriter(zw)
	bw.WriteString("id\tparent\top\tname\tstart_ns\tend_ns\n")
	t.mu.Lock()
	var line []byte
	for _, s := range t.spans {
		line = strconv.AppendInt(line[:0], int64(s.id), 10)
		line = append(line, '\t')
		line = strconv.AppendInt(line, int64(s.parent), 10)
		line = append(line, '\t')
		line = strconv.AppendInt(line, int64(s.op), 10)
		line = append(line, '\t')
		line = append(line, spanNames[s.name]...)
		line = append(line, '\t')
		line = strconv.AppendInt(line, s.start, 10)
		line = append(line, '\t')
		line = strconv.AppendInt(line, s.end, 10)
		line = append(line, '\n')
		bw.Write(line)
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := zw.Close(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return f.Close()
}

// --- study tracing through StudyOptions.EnvHook ---

// studyTrace times one gamma.RunStudyWithOptions call from outside: the
// EnvHook marks when each volunteer starts and wraps its Browser,
// Resolver and Prober in timing decorators, which mark when it last
// returned.
type studyTrace struct {
	tr    *tracer
	op    int32
	start int64
	first atomic.Int64 // first EnvHook call; 0 until then

	mu   sync.Mutex
	vols []*volTrace
}

type volTrace struct {
	st    *studyTrace
	id    int32
	start int64
	last  atomic.Int64
}

func (t *tracer) beginStudy() *studyTrace {
	return &studyTrace{tr: t, op: t.reserve(), start: t.now()}
}

// hook is the StudyOptions.EnvHook of a traced study.
func (st *studyTrace) hook(_ string, env core.Env) core.Env {
	now := st.tr.now()
	st.first.CompareAndSwap(0, now)
	v := &volTrace{st: st, id: st.tr.reserve(), start: now}
	v.last.Store(now)
	st.mu.Lock()
	st.vols = append(st.vols, v)
	st.mu.Unlock()
	env.Browser = timedBrowser{env.Browser, v}
	if cr, ok := env.Resolver.(core.ChainResolver); ok {
		env.Resolver = timedChainResolver{timedResolver{env.Resolver, v}, cr}
	} else {
		env.Resolver = timedResolver{env.Resolver, v}
	}
	if env.Prober != nil {
		env.Prober = timedProber{env.Prober, v}
	}
	return env
}

// end closes the study's spans: one per volunteer, then the three phases
// that partition the study's wall time, then the study itself.
func (st *studyTrace) end() {
	end := st.tr.now()
	lastCall := st.start
	st.mu.Lock()
	for _, v := range st.vols {
		last := v.last.Load()
		st.tr.record(span{id: v.id, parent: st.op, op: st.op, name: spanVolunteer, start: v.start, end: last})
		lastCall = max(lastCall, last)
	}
	st.mu.Unlock()
	first := st.first.Load()
	if first == 0 {
		first = end
	}
	st.tr.add(spanTargets, st.op, st.op, st.start, first)
	st.tr.add(spanCampaign, st.op, st.op, first, lastCall)
	st.tr.add(spanTail, st.op, st.op, lastCall, end)
	st.tr.record(span{id: st.op, op: st.op, name: spanStudy, start: st.start, end: end})
}

func (v *volTrace) done(name spanName, start int64) {
	end := v.st.tr.now()
	v.st.tr.add(name, v.id, v.st.op, start, end)
	v.last.Store(end)
}

type timedBrowser struct {
	in core.Browser
	v  *volTrace
}

func (b timedBrowser) Load(ctx context.Context, site string) (core.PageRecord, error) {
	s := b.v.st.tr.now()
	rec, err := b.in.Load(ctx, site)
	b.v.done(spanLoad, s)
	return rec, err
}

type timedResolver struct {
	in core.Resolver
	v  *volTrace
}

func (r timedResolver) Resolve(ctx context.Context, domain string) (netip.Addr, error) {
	s := r.v.st.tr.now()
	a, err := r.in.Resolve(ctx, domain)
	r.v.done(spanResolve, s)
	return a, err
}

func (r timedResolver) Reverse(ctx context.Context, addr netip.Addr) (string, bool) {
	s := r.v.st.tr.now()
	name, ok := r.in.Reverse(ctx, addr)
	r.v.done(spanReverse, s)
	return name, ok
}

// timedChainResolver keeps the optional ChainResolver capability visible
// to the suite, which records CNAME chains only when the resolver has it.
type timedChainResolver struct {
	timedResolver
	chain core.ChainResolver
}

func (r timedChainResolver) ResolveChain(ctx context.Context, domain string) (netip.Addr, []string, error) {
	s := r.v.st.tr.now()
	a, chain, err := r.chain.ResolveChain(ctx, domain)
	r.v.done(spanResolve, s)
	return a, chain, err
}

type timedProber struct {
	in core.Prober
	v  *volTrace
}

func (p timedProber) Traceroute(ctx context.Context, dst netip.Addr) (tracert.Normalized, error) {
	s := p.v.st.tr.now()
	n, err := p.in.Traceroute(ctx, dst)
	p.v.done(spanProbe, s)
	return n, err
}

// --- counters read from the layers' public stats ---

// hitCount is one cache's traffic: hits out of lookups, over ops
// operations that used the cache.
type hitCount struct {
	hits, lookups float64
	ops           int
}

// cacheCounters accumulates every memo's traffic over a run, keyed by
// metric prefix.
type cacheCounters map[string]*hitCount

func (c cacheCounters) add(key string, hits, misses uint64) {
	h := c[key]
	if h == nil {
		h = &hitCount{}
		c[key] = h
	}
	h.hits += float64(hits)
	h.lookups += float64(hits + misses)
	h.ops++
}

// addWorld reads the measurement-plane memos of a world. Every study and
// every reload builds its own world, so each world's counters are that
// operation's alone.
func (c cacheCounters) addWorld(w *gamma.World) {
	p := w.Net.PathCacheStats()
	c.add("netsim.path", p.Hits, p.Misses)
	g := w.Web.PageCacheStats()
	c.add("websim.page", g.Hits, g.Misses)
	b := w.Pages.Stats()
	c.add("browser.parse", b.Hits, b.Misses)
	d := w.DNS.ResolveMemoStats()
	c.add("dnssim.memo", d.Hits, d.Misses)
}

// addResult reads the Box-2 caches of one analysis.
func (c cacheCounters) addResult(r *gamma.Result) {
	c.add("geoloc.dest", uint64(r.Caches.Geoloc.Hits), uint64(r.Caches.Geoloc.Misses))
	c.add("filterlist.match", uint64(r.Caches.Lists.Hits), uint64(r.Caches.Lists.Misses))
}
