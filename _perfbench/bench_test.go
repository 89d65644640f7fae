package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/gamma-suite/gamma/internal/serve"
)

// minimal is the smallest run of a workload: one set-up and a measured
// phase short enough that every loop runs its minimum of one operation.
func minimal(t *testing.T, workload string, trace bool) config {
	return config{workload: workload, seed: HeldOutSeed, seconds: 300 * time.Millisecond, trace: trace, dir: t.TempDir(), setups: 1}
}

// lastJSON runs the report's printer and decodes its last line, as the
// benchmark's caller does.
func lastJSON(t *testing.T, rep *report, cfg config) (out struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}) {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.print(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	return out
}

func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for w := range workloads {
		want = append(want, w)
	}
	sort.Strings(names)
	sort.Strings(want)
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, want)
	}
	same := func(what string, got []struct{ Name, Unit string }, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program reports %d", what, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, program %s %s", what, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

// TestWorkloadsOnHeldOutSeed runs every workload at minimum size, untraced
// and traced, on the held-out seed: every output check passes, every
// end-to-end metric is measured and positive, and the traced run reports
// every per-layer metric, non-zero for the layers the workload exercises.
func TestWorkloadsOnHeldOutSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs whole studies")
	}
	exercised := map[string][]string{
		"study": {"browser.load_ms", "browser.loads", "browser.busy_s", "dnssim.resolve_us", "dnssim.reverse_us",
			"dnssim.resolves", "dnssim.busy_s", "tracert.probe_us", "tracert.probes", "tracert.busy_s",
			"core.volunteer_s", "core.volunteer_max_s", "core.suite_self_s", "core.campaign_s",
			"worldgen.targets_s", "pipeline.tail_s", "sched.attempts", "netsim.path_hit_ratio",
			"browser.parse_hit_ratio", "dnssim.memo_hit_ratio", "geoloc.dest_hit_ratio",
			"filterlist.match_hit_ratio", "websim.page_lookups", "runtime.gc_cpu_s", "trace.op_ms", "trace.spans"},
		"reload": {"worldgen.build_s", "worldgen.alloc_mb", "core.load_s", "core.load_alloc_mb", "core.decoded_mb",
			"pipeline.process_s", "pipeline.alloc_mb", "serve.build_s", "serve.install_s", "serve.handler_us",
			"http.overhead_us", "serve.status_200", "loadgen.late_p99_ms", "runtime.gc_cpu_s", "trace.op_ms"},
		"serve-read": {"serve.build_s", "serve.handler_us", "serve.handler_p99_us", "http.overhead_us",
			"serve.revalidated_ratio", "serve.conditional", "serve.status_200", "serve.status_304",
			"serve.status_404", "loadgen.late_p99_ms", "trace.op_ms"},
	}
	for _, w := range []string{"study", "reload", "serve-read"} {
		for _, trace := range []bool{false, true} {
			cfg := minimal(t, w, trace)
			rep, err := run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w, trace, err)
			}
			out := lastJSON(t, rep, cfg)
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d", w, trace, out.Correct, out.Attempted, out.Failed)
			}
			if !trace {
				if len(out.Metrics) != len(endToEnd) {
					t.Errorf("%s: %d metrics, want %d", w, len(out.Metrics), len(endToEnd))
				}
				for _, d := range endToEnd {
					if m := out.Metrics[d.name]; !(m.Value > 0) || m.Unit != d.unit {
						t.Errorf("%s: %s = %v %s, want a positive value in %s", w, d.name, m.Value, m.Unit, d.unit)
					}
				}
				continue
			}
			if len(out.Metrics) != len(perLayer) {
				t.Errorf("%s traced: %d metrics, want %d", w, len(out.Metrics), len(perLayer))
			}
			for _, name := range exercised[w] {
				if v := out.Metrics[name].Value; !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("%s traced: %s = %v, want > 0", w, name, v)
				}
			}
		}
	}
}

// TestSpansAccountForOperations checks the traced run's bookkeeping: a
// study's three phases partition its wall time, and a reload's callback
// parts plus serve.install cover the round trip.
func TestSpansAccountForOperations(t *testing.T) {
	if testing.Short() {
		t.Skip("runs whole studies")
	}
	for _, w := range []string{"study", "reload"} {
		cfg := minimal(t, w, true)
		tr := newTracer()
		if err := workloads[w](context.Background(), cfg, tr, newReport()); err != nil {
			t.Fatal(err)
		}
		ls := tr.layers()
		switch w {
		case "study":
			for op, total := range ls.byOp[spanStudy] {
				parts := ls.byOp[spanTargets][op] + ls.byOp[spanCampaign][op] + ls.byOp[spanTail][op]
				if math.Abs(parts-total) > 1e-6 {
					t.Errorf("study %d: targets+campaign+tail = %.6fs, study = %.6fs", op, parts, total)
				}
			}
		case "reload":
			if len(ls.byOp[spanReload]) == 0 {
				t.Fatal("no reload spans")
			}
			for op, total := range ls.byOp[spanReload] {
				cb := ls.byOp[spanCallback][op]
				parts := ls.byOp[spanDatasetLoad][op] + ls.byOp[spanWorldBuild][op] + ls.byOp[spanProcess][op] + ls.byOp[spanSnapshotBuild][op]
				if cb <= 0 || cb > total || parts > cb || parts < 0.9*cb {
					t.Errorf("reload %d: round trip %.4fs, callback %.4fs, its layer calls %.4fs", op, total, cb, parts)
				}
			}
		}
	}
}

// TestCorruptedExpectationsCountAsFailures shows that each workload's
// output check fires: a wrong reference digest, a wrong expected body or
// ETag, a wrong expected generation, a server that ignores ?snapshot= and a
// wrong expected snapshot are all counted as failed.
func TestCorruptedExpectationsCountAsFailures(t *testing.T) {
	if testing.Short() {
		t.Skip("runs whole studies")
	}
	ctx := context.Background()

	var wrong [32]byte
	wrong[0] = 1
	loop := runStudyLoop(ctx, HeldOutSeed, wrong, 0, nil, newStudyCounters())
	if loop.attempted != 1 || loop.failed != 1 {
		t.Errorf("study with a corrupted digest: attempted %d failed %d, want 1 and 1", loop.attempted, loop.failed)
	}

	cfg := minimal(t, "serve-read", false)
	sr, err := setupServeRead(ctx, cfg, nil, newStudyCounters(), newReport())
	defer sr.close()
	if err != nil {
		t.Fatal(err)
	}
	var plain, revalidate readSpec
	for _, s := range sr.mix {
		switch s.kind {
		case readPlain:
			plain = s
		case readConditional:
			revalidate = s
		}
	}
	history := plain
	history.kind = readHistory
	badBody := plain
	badBody.body = append([]byte(nil), plain.body...)
	badBody.body[len(badBody.body)/2] ^= 1
	badETag := revalidate
	badETag.etag = `"0000000000000000"`
	badETag.inm = badETag.etag
	fails := func(what string, readers []*reader, spec readSpec) {
		t.Helper()
		run := openLoop(readers, []readSpec{spec}, 0, 1000, 20*time.Millisecond)
		if run.stats.attempted == 0 || run.stats.failed != run.stats.attempted {
			t.Errorf("%s: attempted %d failed %d, want all failed", what, run.stats.attempted, run.stats.failed)
		}
	}
	fails("plain read, corrupted body", sr.readers, badBody)
	fails("revalidation, corrupted ETag", sr.readers, badETag)

	// Expected generations that are wrong: the live one for plain and
	// conditional reads, the previous one for history reads.
	prevID, liveID := sr.b.snap.Meta().ID, sr.b.store.Load().Meta().ID
	wrongLive := []*reader{{c: sr.readers[0].c, gens: newGenerations(prevID, "not-"+liveID)}}
	fails("plain read, wrong live generation", wrongLive, plain)
	fails("revalidation, wrong live generation", wrongLive, revalidate)
	// A server that ignores ?snapshot= answers history reads from the live
	// generation, with the same bytes and ETag.
	srv := serve.New(sr.b.store, serve.Options{})
	ignoring, err := listen(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.URL.RawQuery = ""
		srv.ServeHTTP(w, r)
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer ignoring.close()
	ic, err := dial(ignoring.base)
	if err != nil {
		t.Fatal(err)
	}
	defer ic.close()
	fails("history read, server ignores ?snapshot=", []*reader{{c: ic, gens: sr.readers[0].gens}}, history)
	fails("history read, wrong previous generation", []*reader{{c: sr.readers[0].c, gens: newGenerations("not-"+prevID, liveID)}}, history)

	for _, spec := range []readSpec{plain, revalidate, history} {
		run := openLoop(sr.readers, []readSpec{spec}, 0, 1000, 20*time.Millisecond)
		if run.stats.attempted == 0 || run.stats.failed != 0 {
			t.Errorf("uncorrupted read of kind %d: %d of %d failed", spec.kind, run.stats.failed, run.stats.attempted)
		}
	}
	if good := openLoop(sr.readers, sr.mix, 0, 1000, 50*time.Millisecond); good.stats.failed != 0 {
		t.Errorf("uncorrupted mix: %d of %d reads failed", good.stats.failed, good.stats.attempted)
	}

	cfg = minimal(t, "reload", false)
	rl, err := setupReload(ctx, cfg, nil, newStudyCounters(), newReport())
	defer rl.close()
	if err != nil {
		t.Fatal(err)
	}
	for path, body := range rl.want {
		rl.want[path] = append(append([]byte(nil), body...), ' ')
		break
	}
	if _, attempted, failed := reloadLoop(rl.writer, nil, 0, rl.b.store, rl.gens, rl.want); attempted != 1 || failed != 1 {
		t.Errorf("reload against a corrupted expected body: attempted %d failed %d, want 1 and 1", attempted, failed)
	}
}

func TestQuantile(t *testing.T) {
	s := samples{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := s.quantile(c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if (samples{}).median() != 0 {
		t.Error("median of no samples is not 0")
	}
}
