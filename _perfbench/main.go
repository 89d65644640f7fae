// Command perfbench is the repository benchmark. It times the three paths
// Gamma's users wait on, end to end and layer by layer, by calling each
// layer's public functions from outside:
//
//	study       a researcher's whole 23-country study (gamma.RunStudyWithOptions)
//	reload      an operator's dataset re-analysis through POST /admin/reload
//	serve-read  a client's /v1 reads over loopback HTTP
//
// Usage (from the repository root; perfbench/run.py builds and runs it):
//
//	perfbench --workload study --seed 42 --seconds 20 --trace 0
//
// The report lists every metric with its unit and sample count; the last
// line of standard output is one JSON object with the end-to-end metrics
// (--trace 0) or the per-layer metrics of a traced run (--trace 1). See
// README.md for the workloads and what each metric should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

const (
	// DefaultSeed is the seed the repository's other tools default to.
	DefaultSeed = 42
	// HeldOutSeed is kept out of tuning: a gain claimed on other seeds is
	// re-checked on this one, and the benchmark's own tests run on it.
	HeldOutSeed = 1729
	// defaultSetups is how many times a run performs its set-up; setup_s
	// is their median.
	defaultSetups = 5
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported on every
// workload. "op" is the workload's operation: a whole study, one reload
// round trip, or one read.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_ms", "ms"},
	{"op_alloc_mb", "MB"},
	{"tail_ms", "ms"},
	{"ops_per_s", "1/s"},
}

// perLayer are the traced run's metrics, named after the module that does
// the work. A layer a workload does not exercise reads 0 on it.
var perLayer = []metricDef{
	{"browser.load_ms", "ms"},
	{"browser.loads", "count"},
	{"browser.busy_s", "s"},
	{"dnssim.resolve_us", "us"},
	{"dnssim.reverse_us", "us"},
	{"dnssim.resolves", "count"},
	{"dnssim.reverses", "count"},
	{"dnssim.busy_s", "s"},
	{"tracert.probe_us", "us"},
	{"tracert.probes", "count"},
	{"tracert.busy_s", "s"},
	{"core.volunteer_s", "s"},
	{"core.volunteer_max_s", "s"},
	{"core.suite_self_s", "s"},
	{"core.campaign_s", "s"},
	{"worldgen.targets_s", "s"},
	{"pipeline.tail_s", "s"},
	{"sched.attempts", "count"},
	{"sched.retries", "count"},
	{"netsim.path_hit_ratio", "ratio"},
	{"netsim.path_lookups", "count"},
	{"websim.page_hit_ratio", "ratio"},
	{"websim.page_lookups", "count"},
	{"browser.parse_hit_ratio", "ratio"},
	{"browser.parse_lookups", "count"},
	{"dnssim.memo_hit_ratio", "ratio"},
	{"dnssim.memo_lookups", "count"},
	{"geoloc.dest_hit_ratio", "ratio"},
	{"geoloc.dest_lookups", "count"},
	{"filterlist.match_hit_ratio", "ratio"},
	{"filterlist.match_lookups", "count"},
	{"worldgen.build_s", "s"},
	{"worldgen.alloc_mb", "MB"},
	{"core.load_s", "s"},
	{"core.load_alloc_mb", "MB"},
	{"core.decoded_mb", "MB"},
	{"pipeline.process_s", "s"},
	{"pipeline.alloc_mb", "MB"},
	{"serve.build_s", "s"},
	{"serve.install_s", "s"},
	{"serve.handler_us", "us"},
	{"serve.handler_p99_us", "us"},
	{"http.overhead_us", "us"},
	{"serve.revalidated_ratio", "ratio"},
	{"serve.conditional", "count"},
	{"serve.status_200", "count"},
	{"serve.status_304", "count"},
	{"serve.status_404", "count"},
	{"serve.status_other", "count"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.max_rps", "1/s"},
	{"runtime.gc_cpu_s", "s"},
	{"trace.op_ms", "ms"},
	{"trace.spans", "count"},
}

type config struct {
	workload string
	seed     uint64
	seconds  time.Duration // length of the measured phase
	trace    bool
	dir      string // work directory: datasets, trace file
	setups   int
}

var workloads = map[string]func(context.Context, config, *tracer, *report) error{
	"study":      runStudyWorkload,
	"reload":     runReloadWorkload,
	"serve-read": runServeReadWorkload,
}

func main() {
	cfg := config{setups: defaultSetups}
	flag.StringVar(&cfg.workload, "workload", "", "study, reload or serve-read")
	flag.Uint64Var(&cfg.seed, "seed", DefaultSeed, "workload seed: the world seed and the read-mix seed")
	secs := flag.Float64("seconds", 10, "length of the measured phase, in seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics; 0 reports end-to-end metrics")
	flag.StringVar(&cfg.dir, "dir", ".bench_build", "work directory for datasets and the trace file")
	flag.Parse()
	if _, ok := workloads[cfg.workload]; !ok || *secs <= 0 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload study|reload|serve-read --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	cfg.seconds = time.Duration(*secs * float64(time.Second))
	cfg.trace = *trace == 1

	// A run must end well inside three minutes whatever happens.
	time.AfterFunc(cfg.seconds+150*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded its time budget")
		os.Exit(3)
	})
	rep, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := rep.print(os.Stdout, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run performs one workload run and returns its report.
func run(ctx context.Context, cfg config) (*report, error) {
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	rep := newReport()
	if err := workloads[cfg.workload](ctx, cfg, tr, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if tr != nil {
		rep.layers(tr.layers())
		rep.set("trace.op_ms", rep.vals["op_ms"].v, "ms", rep.vals["op_ms"].n)
		rep.set("trace.spans", float64(tr.count()), "count", 1)
		if err := tr.write(filepath.Join(cfg.dir, "trace-"+cfg.workload+".tsv.gz")); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// value is one reported figure with its unit and the number of samples
// it summarizes.
type value struct {
	v    float64
	unit string
	n    int
}

// report collects a run's figures in the order they were produced.
type report struct {
	attempted, failed int64
	vals              map[string]value
	order             []string
}

func newReport() *report { return &report{vals: map[string]value{}} }

func (r *report) set(name string, v float64, unit string, n int) {
	if _, ok := r.vals[name]; !ok {
		r.order = append(r.order, name)
	}
	r.vals[name] = value{v: v, unit: unit, n: n}
}

// alias reports an end-to-end figure a second time under the name the
// workload's users know it by (study_s is op_ms on study, in seconds).
func (r *report) alias(name, of string, scale float64, unit string) {
	src := r.vals[of]
	r.set(name, src.v*scale, unit, src.n)
}

// count adds operations attempted and failed. A failure is an error, a
// wrong status or a wrong output byte.
func (r *report) count(attempted, failed int64) {
	r.attempted += attempted
	r.failed += failed
}

func (r *report) correct() bool { return r.attempted > 0 && r.failed == 0 }

// studyCounters reports the scheduler and cache counters of every study.
func (r *report) studyCounters(sc *studyCounters) {
	per := float64(max(sc.studies, 1))
	r.set("sched.attempts", float64(sc.attempts)/per, "count", sc.studies)
	r.set("sched.retries", float64(sc.retries)/per, "count", sc.studies)
	r.cacheCounters(sc.caches)
}

// cacheCounters reports each memo's hit ratio with its base: lookups per
// operation that used the memo.
func (r *report) cacheCounters(c cacheCounters) {
	keys := make([]string, 0, len(c))
	for k := range c {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		h := c[k]
		ratio := 0.0
		if h.lookups > 0 {
			ratio = h.hits / h.lookups
		}
		r.set(k+"_hit_ratio", ratio, "ratio", int(h.lookups))
		r.set(k+"_lookups", h.lookups/float64(max(h.ops, 1)), "count", h.ops)
	}
}

// layers reports the span-derived per-layer figures. Counts and busy
// times are per study; durations are medians over every span of a name.
func (r *report) layers(ls *layerStats) {
	studies := len(ls.dur[spanStudy])
	per := float64(max(studies, 1))
	count := func(n spanName) float64 { return float64(len(ls.dur[n])) / per }
	r.set("browser.load_ms", ls.dur[spanLoad].median()*1e3, "ms", len(ls.dur[spanLoad]))
	r.set("browser.loads", count(spanLoad), "count", studies)
	r.set("browser.busy_s", ls.dur[spanLoad].sum()/per, "s", studies)
	r.set("dnssim.resolve_us", ls.dur[spanResolve].median()*1e6, "us", len(ls.dur[spanResolve]))
	r.set("dnssim.reverse_us", ls.dur[spanReverse].median()*1e6, "us", len(ls.dur[spanReverse]))
	r.set("dnssim.resolves", count(spanResolve), "count", studies)
	r.set("dnssim.reverses", count(spanReverse), "count", studies)
	r.set("dnssim.busy_s", (ls.dur[spanResolve].sum()+ls.dur[spanReverse].sum())/per, "s", studies)
	r.set("tracert.probe_us", ls.dur[spanProbe].median()*1e6, "us", len(ls.dur[spanProbe]))
	r.set("tracert.probes", count(spanProbe), "count", studies)
	r.set("tracert.busy_s", ls.dur[spanProbe].sum()/per, "s", studies)
	r.set("core.volunteer_s", ls.dur[spanVolunteer].median(), "s", len(ls.dur[spanVolunteer]))
	r.set("core.volunteer_max_s", ls.maxPerOp(spanVolunteer).median(), "s", studies)
	r.set("core.suite_self_s", ls.self[spanVolunteer].sum()/per, "s", studies)
	r.set("core.campaign_s", ls.dur[spanCampaign].median(), "s", studies)
	r.set("worldgen.targets_s", ls.dur[spanTargets].median(), "s", studies)
	r.set("pipeline.tail_s", ls.dur[spanTail].median(), "s", studies)

	reloads := len(ls.dur[spanReload])
	r.set("worldgen.build_s", ls.dur[spanWorldBuild].median(), "s", len(ls.dur[spanWorldBuild]))
	r.set("core.load_s", ls.perOp(spanDatasetLoad).median(), "s", reloads)
	r.set("pipeline.process_s", ls.dur[spanProcess].median(), "s", len(ls.dur[spanProcess]))
	r.set("serve.build_s", ls.dur[spanSnapshotBuild].median(), "s", len(ls.dur[spanSnapshotBuild]))
	var install samples
	for op, rt := range ls.byOp[spanReload] {
		install = append(install, rt-ls.byOp[spanCallback][op])
	}
	r.set("serve.install_s", install.median(), "s", len(install))

	r.set("serve.handler_us", ls.dur[spanHandler].median()*1e6, "us", len(ls.dur[spanHandler]))
	r.set("serve.handler_p99_us", ls.dur[spanHandler].quantile(0.99)*1e6, "us", len(ls.dur[spanHandler]))
	r.set("http.overhead_us", ls.self[spanRead].median()*1e6, "us", len(ls.self[spanRead]))
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the human-readable report, then the JSON result line.
func (r *report) print(w io.Writer, cfg config) error {
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%g trace=%t\n", cfg.workload, cfg.seed, cfg.seconds.Seconds(), cfg.trace)
	pct := 0.0
	if r.attempted > 0 {
		pct = 100 * float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "  %-28s %14.6g %-6s n=%d\n", "failed_pct", pct, "%", r.attempted)
	for _, name := range r.order {
		v := r.vals[name]
		fmt.Fprintf(w, "  %-28s %14.6g %-6s n=%d\n", name, v.v, v.unit, v.n)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, d := range defs {
		v, ok := r.vals[d.name]
		if !ok && !cfg.trace {
			return fmt.Errorf("workload %s did not measure %s", cfg.workload, d.name)
		}
		out.Metrics[d.name] = jsonMetric{Value: v.v, Unit: d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
