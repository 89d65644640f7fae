package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	gamma "github.com/gamma-suite/gamma"
	"github.com/gamma-suite/gamma/internal/core"
	"github.com/gamma-suite/gamma/internal/serve"
)

const (
	// serveReadRate is the serve-read workload's fixed offered load: light
	// (two connections saturate near 40k reads/s on two CPUs), so its
	// latency is the request path's and not queueing's.
	serveReadRate = 5000
	// reloadReadRate is the read load offered beside the reloads.
	reloadReadRate = 1000
	// readLimit is the p99 latency a rung of the read_max_rps ladder must
	// stay under.
	readLimit = 5 * time.Millisecond
	// lateLimit is how much a rung's median latency may grow from its first
	// quarter to its last before the rung counts as falling behind.
	lateLimit = time.Millisecond
	// The read_max_rps ladder offers ladderBase × ladderStep^k reads per
	// second for k < ladderRungs (8k to 48k).
	ladderBase  = 8000
	ladderStep  = 1.25
	ladderRungs = 9
	// spanHeader carries a read's span id to the server in a traced run.
	spanHeader = "Bench-Span"
)

// booted is a started gammad: a study, its snapshot and the store serving it.
type booted struct {
	study *gamma.Study
	snap  *serve.Snapshot
	store *serve.Store
}

// boot makes the same calls as gammad's start-up without -data: a full
// study, serve.Build over its result, and a monolithic store.
func boot(ctx context.Context, seed uint64, tr *tracer, sc *studyCounters) (booted, error) {
	study, _, err := runOneStudy(ctx, seed, tr, sc)
	if err != nil {
		return booted{}, err
	}
	snap, err := buildSnapshot(study.Result, study.World, serve.Meta{ID: fmt.Sprintf("seed-%d", seed), BuiltAt: time.Now()}, tr, 0, 0)
	if err != nil {
		return booted{}, err
	}
	store, err := serve.NewStoreWithOptions(snap, serve.StoreOptions{HistoryDepth: serve.DefaultHistoryDepth})
	if err != nil {
		return booted{}, err
	}
	return booted{study: study, snap: snap, store: store}, nil
}

// bootTimed boots cfg.setups times and keeps the last; setup_s is the
// median boot time.
func bootTimed(ctx context.Context, cfg config, tr *tracer, sc *studyCounters, rep *report) (booted, error) {
	var b booted
	var setup samples
	for i := 0; i < cfg.setups; i++ {
		runtime.GC()
		t0 := time.Now()
		var err error
		if b, err = boot(ctx, cfg.seed, tr, sc); err != nil {
			return booted{}, fmt.Errorf("boot: %w", err)
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	rep.set("setup_s", setup.median(), "s", len(setup))
	return b, nil
}

// buildSnapshot calls serve.Build, traced as a child of parent when tr is
// non-nil (parent 0 makes it an operation of its own).
func buildSnapshot(res *gamma.Result, w *gamma.World, meta serve.Meta, tr *tracer, parent, op int32) (*serve.Snapshot, error) {
	var start int64
	if tr != nil {
		start = tr.now()
	}
	snap, err := serve.Build(res, w.Registry, gamma.PolicyRegistry(w), meta)
	if tr != nil {
		id := tr.reserve()
		if op == 0 {
			op = id
		}
		tr.record(span{id: id, parent: parent, op: op, name: spanSnapshotBuild, start: start, end: tr.now()})
	}
	return snap, err
}

// timedHandler is the traced run's http.Handler: it times
// Server.ServeHTTP and links the span to the client's span, whose id
// arrives in the Bench-Span header.
type timedHandler struct {
	h  http.Handler
	tr *tracer
	// The reload in flight: its handler span and operation, for the
	// Reload callback's spans. Reloads are serialized by the server.
	reloadSpan, reloadOp atomic.Int32
}

func (t *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
	id := t.tr.reserve()
	name := spanHandler
	if r.URL.Path == "/admin/reload" {
		name = spanReloadHandler
		t.reloadSpan.Store(id)
		t.reloadOp.Store(int32(parent))
	}
	start := t.tr.now()
	t.h.ServeHTTP(w, r)
	t.tr.record(span{id: id, parent: int32(parent), op: int32(parent), name: name, start: start, end: t.tr.now()})
}

// httpServer is a loopback HTTP server run by the benchmark.
type httpServer struct {
	hs   *http.Server
	base string
	done chan error
}

func listen(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	// No read or write deadline: a reload may run for many seconds under
	// the race detector.
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 2 * time.Minute}
	s := &httpServer{hs: hs, base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// close stops the server and waits for it to return.
func (s *httpServer) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// handlerFor wraps srv in the timing handler on a traced run.
func handlerFor(srv *serve.Server, tr *tracer) (http.Handler, *timedHandler) {
	if tr == nil {
		return srv, nil
	}
	th := &timedHandler{h: srv, tr: tr}
	return th, th
}

// reportReads reports the read-side figures shared by serve-read and
// reload.
func reportReads(rep *report, run *openRun, stats readStats) {
	rep.set("loadgen.late_p99_ms", run.late.quantile(0.99)*1e3, "ms", len(run.late))
	ratio := 0.0
	if stats.conditional > 0 {
		ratio = float64(stats.revalidated) / float64(stats.conditional)
	}
	rep.set("serve.revalidated_ratio", ratio, "ratio", int(stats.conditional))
	rep.set("serve.conditional", float64(stats.conditional), "count", 1)
	rep.set("serve.status_200", float64(stats.status200), "count", 1)
	rep.set("serve.status_304", float64(stats.status304), "count", 1)
	rep.set("serve.status_404", float64(stats.status404), "count", 1)
	rep.set("serve.status_other", float64(stats.statusOther), "count", 1)
	rep.count(stats.attempted, stats.failed)
}

// --- serve-read ---

// serveReadEnv is the serve-read workload after set-up: a server on the
// seed's snapshot with two generations installed, two connections, and
// the read mix.
type serveReadEnv struct {
	b       booted
	srv     *httpServer
	readers []*reader
	mix     []readSpec
}

func (e *serveReadEnv) close() {
	for _, rd := range e.readers {
		rd.c.close()
	}
	if e.srv != nil {
		e.srv.close()
	}
}

// setupServeRead boots the server and installs a second generation of the
// same corpus under a new id, so that ?snapshot=<previous id> reads hit a
// retained older generation. The caller closes the returned env, also on
// error.
func setupServeRead(ctx context.Context, cfg config, tr *tracer, sc *studyCounters, rep *report) (*serveReadEnv, error) {
	e := &serveReadEnv{}
	var err error
	if e.b, err = bootTimed(ctx, cfg, tr, sc, rep); err != nil {
		return e, err
	}
	prev := e.b.snap
	live, err := buildSnapshot(e.b.study.Result, e.b.study.World, serve.Meta{ID: prev.Meta().ID + "-gen2", BuiltAt: time.Now()}, tr, 0, 0)
	if err != nil {
		return e, err
	}
	if err := e.b.store.Install(live); err != nil {
		return e, err
	}
	h, _ := handlerFor(serve.New(e.b.store, serve.Options{}), tr)
	if e.srv, err = listen(h); err != nil {
		return e, err
	}
	gens := newGenerations(prev.Meta().ID, live.Meta().ID)
	for i := 0; i < 2; i++ {
		c, err := dial(e.srv.base)
		if err != nil {
			return e, err
		}
		e.readers = append(e.readers, &reader{c: c, tr: tr, gens: gens})
	}
	etags, err := learnETags(e.readers[0].c, live)
	if err != nil {
		return e, err
	}
	e.mix, err = buildMix(cfg.seed, live, prev, etags)
	return e, err
}

// runServeReadWorkload: reads over two connections against a monolithic
// server on the seed's snapshot. The measured time is split: up to 20%
// climbs the read_max_rps ladder, 20% sends back to back (closed loop) to
// measure saturation throughput, and the rest, at least 60%, offers
// serveReadRate open loop for the latency figures.
func runServeReadWorkload(ctx context.Context, cfg config, tr *tracer, rep *report) error {
	sc := newStudyCounters()
	e, err := setupServeRead(ctx, cfg, tr, sc, rep)
	defer e.close()
	if err != nil {
		return err
	}
	readers, mix := e.readers, e.mix

	runtime.GC() // set-up's garbage, so that its collection does not fail a rung
	start := time.Now()
	best, ladder := maxReadRate(readers, mix, 0, cfg.seconds/5)
	stats, offset := ladder, int(ladder.attempted)
	saturation, closed := closedLoop(readers, mix, offset, cfg.seconds/5)
	stats.merge(closed)
	offset += int(closed.attempted)

	runtime.GC()
	r0 := readRuntime()
	fixed := openLoop(readers, mix, offset, serveReadRate, max(cfg.seconds-time.Since(start), cfg.seconds*3/5))
	r1 := readRuntime()
	stats.merge(fixed.stats)

	n := len(fixed.lat)
	rep.set("op_ms", fixed.lat.median()*1e3, "ms", n)
	rep.set("op_alloc_mb", r1.allocMBSince(r0)/float64(n), "MB", n)
	rep.set("tail_ms", fixed.perSecond(0.9), "ms", n)
	rep.set("ops_per_s", saturation.median(), "1/s", len(saturation))
	rep.alias("read_p50_ms", "op_ms", 1, "ms")
	rep.alias("read_p90_ms", "tail_ms", 1, "ms")
	rep.set("read_p99_ms", fixed.lat.quantile(0.99)*1e3, "ms", n)
	rep.set("read_max_rps", best, "1/s", int(ladder.attempted))
	rep.alias("loadgen.max_rps", "read_max_rps", 1, "1/s")
	rep.set("runtime.gc_cpu_s", (r1.gcCPU-r0.gcCPU)/float64(n), "s", n)
	reportReads(rep, fixed, stats)
	rep.studyCounters(sc)
	return nil
}

// passes reports whether an open-loop phase kept its p99 under readLimit
// without a growing backlog.
func (o *openRun) passes() bool {
	return o.lat.quantile(0.99) <= readLimit.Seconds() && o.lateGrowth() <= lateLimit.Seconds()
}

// maxReadRate climbs the rate ladder within budget and stops at the first
// rung that does not pass. It returns the highest rate that passed, 0 if
// the first rung failed.
func maxReadRate(readers []*reader, mix []readSpec, offset int, budget time.Duration) (float64, readStats) {
	rung := max(budget/ladderRungs, 100*time.Millisecond)
	var stats readStats
	best := 0.0
	for k := 0; k < ladderRungs; k++ {
		rate := ladderBase * math.Pow(ladderStep, float64(k))
		o := openLoop(readers, mix, offset, rate, rung)
		offset += len(o.lat)
		stats.merge(o.stats)
		if !o.passes() {
			break
		}
		best = rate
	}
	return best, stats
}

// --- reload ---

// reloader is the reload workload's serve.Options.Reload: the same public
// calls, in the same order, as gammad's buildSnapshot with -data.
type reloader struct {
	seed uint64
	dir  string
	tr   *tracer
	th   *timedHandler
	gens *generations

	mu                         sync.Mutex
	reloads                    int
	caches                     cacheCounters
	worldMB, loadMB, processMB samples
}

// reload builds the next generation. gammad names every reload of a data
// directory alike; the benchmark numbers them, so that history reads can
// address a generation really older than the live one.
func (rl *reloader) reload(_ context.Context, _ url.Values) (*serve.Snapshot, error) {
	rl.mu.Lock()
	rl.reloads++
	id := fmt.Sprintf("data-%s@seed-%d#%d", filepath.Clean(rl.dir), rl.seed, rl.reloads)
	rl.mu.Unlock()
	rl.gens.name(id)
	meta := serve.Meta{ID: id, BuiltAt: time.Now()}
	var cb, op int32
	var cbStart int64
	if rl.tr != nil {
		cb, op, cbStart = rl.tr.reserve(), rl.th.reloadOp.Load(), rl.tr.now()
		defer func() {
			rl.tr.record(span{id: cb, parent: rl.th.reloadSpan.Load(), op: op, name: spanCallback, start: cbStart, end: rl.tr.now()})
		}()
	}
	// step runs one layer call, traced as a child of the callback span
	// with the bytes it allocated.
	step := func(name spanName, alloc *samples, f func() error) error {
		if rl.tr == nil {
			return f()
		}
		r0, s := readRuntime(), rl.tr.now()
		err := f()
		rl.tr.add(name, cb, op, s, rl.tr.now())
		if alloc != nil {
			mb := readRuntime().allocMBSince(r0)
			rl.mu.Lock()
			*alloc = append(*alloc, mb)
			rl.mu.Unlock()
		}
		return err
	}

	files, err := datasetFiles(rl.dir)
	if err != nil {
		return nil, err
	}
	r0 := readRuntime()
	datasets := make([]*core.Dataset, 0, len(files))
	for _, f := range files {
		var ds *core.Dataset
		if err := step(spanDatasetLoad, nil, func() (err error) { ds, err = core.LoadDataset(f); return err }); err != nil {
			return nil, err
		}
		datasets = append(datasets, ds)
	}
	if rl.tr != nil {
		mb := readRuntime().allocMBSince(r0)
		rl.mu.Lock()
		rl.loadMB = append(rl.loadMB, mb)
		rl.mu.Unlock()
	}
	var w *gamma.World
	if err := step(spanWorldBuild, &rl.worldMB, func() (err error) { w, err = gamma.NewWorld(rl.seed); return err }); err != nil {
		return nil, err
	}
	var res *gamma.Result
	if err := step(spanProcess, &rl.processMB, func() (err error) { res, err = gamma.AnalyzeWithWorkers(w, datasets, 0); return err }); err != nil {
		return nil, err
	}
	rl.mu.Lock()
	p := w.Net.PathCacheStats()
	rl.caches.add("netsim.path", p.Hits, p.Misses)
	rl.caches.addResult(res)
	rl.mu.Unlock()
	return buildSnapshot(res, w, meta, rl.tr, cb, op)
}

// datasetFiles lists the *.json and *.json.gz datasets in dir, sorted,
// as gammad does.
func datasetFiles(dir string) ([]string, error) {
	var files []string
	for _, pattern := range []string{"*.json", "*.json.gz"} {
		m, err := filepath.Glob(filepath.Join(dir, pattern))
		if err != nil {
			return nil, err
		}
		files = append(files, m...)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no datasets in %s", dir)
	}
	sort.Strings(files)
	return files, nil
}

// decodedMB is the size of every dataset in dir after decompression: the
// bytes one reload decodes.
func decodedMB(files []string) (float64, error) {
	var total int64
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			return 0, err
		}
		zr, err := gzip.NewReader(fh)
		if err == nil {
			var n int64
			n, err = io.Copy(io.Discard, zr)
			total += n
		}
		fh.Close()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", f, err)
		}
	}
	return float64(total) / (1 << 20), nil
}

// reloadOnce posts one reload and checks the answer: 200 with swapped
// true. Its span is the reload's root when tr is non-nil.
func reloadOnce(c *conn, tr *tracer) (time.Duration, error) {
	var id int32
	var start int64
	if tr != nil {
		id, start = tr.reserve(), tr.now()
	}
	t0 := time.Now()
	status, err := c.roundTrip(http.MethodPost, "/admin/reload", "", "", id)
	d := time.Since(t0)
	if tr != nil {
		tr.record(span{id: id, op: id, name: spanReload, start: start, end: tr.now()})
	}
	if err != nil {
		return d, err
	}
	var out struct {
		Swapped bool `json:"swapped"`
	}
	if status != http.StatusOK || json.Unmarshal(c.body, &out) != nil || !out.Swapped {
		return d, fmt.Errorf("reload: status %d: %s", status, bytes.TrimSpace(c.body))
	}
	return d, nil
}

// bodiesOf copies every body a snapshot serves, by path.
func bodiesOf(snap *serve.Snapshot) map[string][]byte {
	out := map[string][]byte{}
	for _, p := range snap.Endpoints() {
		b, _ := snap.Body(p)
		out[p] = append([]byte(nil), b...)
	}
	return out
}

// sameBodies checks that the live snapshot serves exactly want's bytes on
// exactly want's endpoints.
func sameBodies(live *serve.Snapshot, want map[string][]byte) bool {
	paths := live.Endpoints()
	if len(paths) != len(want) {
		return false
	}
	for _, p := range paths {
		got, ok := live.Body(p)
		if w, known := want[p]; !ok || !known || !bytes.Equal(got, w) {
			return false
		}
	}
	return true
}

// reloadEnv is the reload workload after set-up: a server booted on the
// seed's study whose Reload callback re-analyzes the study's datasets,
// one connection for reloads and one for reads.
type reloadEnv struct {
	b      booted
	want   map[string][]byte // the set-up snapshot's bodies
	dir    string
	files  []string
	rl     *reloader
	gens   *generations
	srv    *httpServer
	writer *conn
	rd     *reader
	mix    []readSpec
}

func (e *reloadEnv) close() {
	if e.writer != nil {
		e.writer.close()
	}
	if e.rd != nil {
		e.rd.c.close()
	}
	if e.srv != nil {
		e.srv.close()
	}
	os.RemoveAll(e.dir)
}

// setupReload boots the server, writes the study's datasets as .json.gz
// and performs one reload, which must already give the set-up snapshot's
// bytes and gives the reads a previous generation to address.
// The caller closes the returned env, also on error.
func setupReload(ctx context.Context, cfg config, tr *tracer, sc *studyCounters, rep *report) (*reloadEnv, error) {
	e := &reloadEnv{}
	var err error
	if e.b, err = bootTimed(ctx, cfg, tr, sc, rep); err != nil {
		return e, err
	}
	e.want = bodiesOf(e.b.snap)
	if e.dir, err = os.MkdirTemp(cfg.dir, "reload-"); err != nil {
		return e, err
	}
	for cc, ds := range e.b.study.Datasets {
		if err := core.SaveDataset(filepath.Join(e.dir, cc+".json.gz"), ds); err != nil {
			return e, err
		}
	}
	if e.files, err = datasetFiles(e.dir); err != nil {
		return e, err
	}
	e.gens = newGenerations(e.b.snap.Meta().ID)
	e.rl = &reloader{seed: cfg.seed, dir: e.dir, tr: tr, gens: e.gens, caches: sc.caches}
	var h http.Handler
	h, e.rl.th = handlerFor(serve.New(e.b.store, serve.Options{Reload: e.rl.reload}), tr)
	if e.srv, err = listen(h); err != nil {
		return e, err
	}
	if e.writer, err = dial(e.srv.base); err != nil {
		return e, err
	}
	if _, err := reloadOnce(e.writer, tr); err != nil {
		return e, fmt.Errorf("first reload: %w", err)
	}
	e.gens.confirm()
	if !sameBodies(e.b.store.Load(), e.want) {
		return e, fmt.Errorf("first reload: bodies differ from the set-up snapshot")
	}
	// Dialed only now: the server drops a connection that sends nothing
	// for ReadHeaderTimeout, which a slow first reload can exceed.
	rc, err := dial(e.srv.base)
	if err != nil {
		return e, err
	}
	e.rd = &reader{c: rc, tr: tr, gens: e.gens}
	etags, err := learnETags(e.rd.c, e.b.snap)
	if err != nil {
		return e, err
	}
	e.mix, err = buildMix(cfg.seed, e.b.snap, e.b.snap, etags)
	return e, err
}

// reloadLoop sends reloads back to back for d (at least one) and checks
// after each that the live snapshot serves want's bytes.
func reloadLoop(c *conn, tr *tracer, d time.Duration, store *serve.Store, gens *generations, want map[string][]byte) (reloads samples, attempted, failed int64) {
	start := time.Now()
	for attempted == 0 || time.Since(start) < d {
		rt, err := reloadOnce(c, tr)
		attempted++
		if err != nil || !sameBodies(store.Load(), want) {
			failed++
			continue
		}
		gens.confirm()
		reloads = append(reloads, rt.Seconds())
	}
	return reloads, attempted, failed
}

// runReloadWorkload: the measured phase sends POST /admin/reload back to
// back on one connection (closed loop) while the other connection offers
// reads at reloadReadRate (open loop).
func runReloadWorkload(ctx context.Context, cfg config, tr *tracer, rep *report) error {
	sc := newStudyCounters()
	e, err := setupReload(ctx, cfg, tr, sc, rep)
	defer e.close()
	if err != nil {
		return err
	}
	decoded, err := decodedMB(e.files)
	if err != nil {
		return err
	}

	runtime.GC()
	r0 := readRuntime()
	start := time.Now()
	var reloads samples
	var attempted, failed int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		reloads, attempted, failed = reloadLoop(e.writer, tr, cfg.seconds, e.b.store, e.gens, e.want)
	}()
	reads := openLoop([]*reader{e.rd}, e.mix, 0, reloadReadRate, cfg.seconds)
	wg.Wait()
	wall := time.Since(start)
	r1 := readRuntime()

	n := len(reloads)
	per := float64(max(n, 1))
	rep.count(attempted, failed)
	rep.set("op_ms", reloads.median()*1e3, "ms", n)
	rep.set("op_alloc_mb", r1.allocMBSince(r0)/per, "MB", n)
	rep.set("tail_ms", reads.perSecond(0.99), "ms", len(reads.lat))
	rep.set("ops_per_s", float64(n)/wall.Seconds(), "1/s", n)
	rep.alias("reload_s", "op_ms", 1e-3, "s")
	rep.alias("reload_alloc_mb", "op_alloc_mb", 1, "MB")
	rep.set("read_p50_ms", reads.lat.median()*1e3, "ms", len(reads.lat))
	rep.alias("read_p99_ms", "tail_ms", 1, "ms")
	rep.set("runtime.gc_cpu_s", (r1.gcCPU-r0.gcCPU)/per, "s", n)
	rep.set("core.decoded_mb", decoded, "MB", len(e.files))
	rl := e.rl
	rl.mu.Lock()
	rep.set("worldgen.alloc_mb", rl.worldMB.median(), "MB", len(rl.worldMB))
	rep.set("core.load_alloc_mb", rl.loadMB.median(), "MB", len(rl.loadMB))
	rep.set("pipeline.alloc_mb", rl.processMB.median(), "MB", len(rl.processMB))
	rl.mu.Unlock()
	reportReads(rep, reads, reads.stats)
	rep.studyCounters(sc)
	return nil
}
