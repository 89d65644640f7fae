package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	gamma "github.com/gamma-suite/gamma"
)

// studyCounters accumulates the counters the layers expose publicly over
// every study a run performs, set-up studies included.
type studyCounters struct {
	studies           int
	attempts, retries int
	caches            cacheCounters
}

func newStudyCounters() *studyCounters { return &studyCounters{caches: cacheCounters{}} }

// runOneStudy runs one full study at seed, traced when tr is non-nil.
// Every call builds a fresh world, so every memo starts cold, as it does
// for every real study.
func runOneStudy(ctx context.Context, seed uint64, tr *tracer, sc *studyCounters) (*gamma.Study, time.Duration, error) {
	var opts gamma.StudyOptions
	var st *studyTrace
	if tr != nil {
		st = tr.beginStudy()
		opts.EnvHook = st.hook
	}
	t0 := time.Now()
	study, err := gamma.RunStudyWithOptions(ctx, seed, opts)
	d := time.Since(t0)
	if st != nil {
		st.end()
	}
	if err != nil {
		return nil, d, err
	}
	if study.Result == nil {
		return nil, d, fmt.Errorf("study at seed %d produced no result", seed)
	}
	sc.studies++
	sc.attempts += study.Sched.Attempts
	sc.retries += study.Sched.Retries
	sc.caches.addWorld(study.World)
	sc.caches.addResult(study.Result)
	return study, d, nil
}

// digest is the SHA-256 of a result's canonical JSON encoding.
func digest(res *gamma.Result) ([32]byte, error) {
	blob, err := json.Marshal(res)
	if err != nil {
		return [32]byte{}, fmt.Errorf("digest: %w", err)
	}
	return sha256.Sum256(blob), nil
}

// studyLoop is the measured phase of the study workload: one caller runs
// whole studies back to back (a closed loop) for d, and checks every
// result's digest against ref outside the timed call.
type studyLoop struct {
	durs, allocMB     samples // per study
	attempted, failed int64
	gcCPU             float64 // seconds, all studies
	busy              time.Duration
}

func runStudyLoop(ctx context.Context, seed uint64, ref [32]byte, d time.Duration, tr *tracer, sc *studyCounters) studyLoop {
	var out studyLoop
	start := time.Now()
	for out.attempted == 0 || time.Since(start) < d {
		// Start every study from a collected heap, as a fresh process
		// would, so one study's garbage is not billed to the next.
		runtime.GC()
		r0 := readRuntime()
		study, dur, err := runOneStudy(ctx, seed, tr, sc)
		r1 := readRuntime()
		out.attempted++
		if err != nil {
			out.failed++
			continue
		}
		if got, err := digest(study.Result); err != nil || got != ref {
			out.failed++
			continue
		}
		out.durs = append(out.durs, dur.Seconds())
		out.allocMB = append(out.allocMB, r1.allocMBSince(r0))
		out.gcCPU += r1.gcCPU - r0.gcCPU
		out.busy += dur
	}
	return out
}

// runStudyWorkload: set-up computes the seed's reference digest (several
// times, to time set-up and to check that the same seed gives the same
// bytes); the measured phase is a closed loop of whole studies.
func runStudyWorkload(ctx context.Context, cfg config, tr *tracer, rep *report) error {
	sc := newStudyCounters()
	var setup samples
	var ref [32]byte
	for i := 0; i < cfg.setups; i++ {
		runtime.GC()
		study, d, err := runOneStudy(ctx, cfg.seed, tr, sc)
		if err != nil {
			return fmt.Errorf("set-up study: %w", err)
		}
		dg, err := digest(study.Result)
		if err != nil {
			return err
		}
		if i > 0 && dg != ref {
			return fmt.Errorf("set-up studies at seed %d disagree: same seed, different bytes", cfg.seed)
		}
		ref = dg
		setup = append(setup, d.Seconds())
	}
	rep.set("setup_s", setup.median(), "s", len(setup))

	loop := runStudyLoop(ctx, cfg.seed, ref, cfg.seconds, tr, sc)
	rep.count(loop.attempted, loop.failed)
	n := len(loop.durs)
	rep.set("op_ms", loop.durs.median()*1e3, "ms", n)
	rep.set("op_alloc_mb", loop.allocMB.median(), "MB", n)
	rep.set("tail_ms", loop.durs.quantile(0.9)*1e3, "ms", n)
	rep.set("ops_per_s", float64(n)/loop.busy.Seconds(), "1/s", n)
	rep.alias("study_s", "op_ms", 1e-3, "s")
	rep.alias("study_alloc_mb", "op_alloc_mb", 1, "MB")
	rep.alias("study_p90_s", "tail_ms", 1e-3, "s")
	rep.set("runtime.gc_cpu_s", loop.gcCPU/float64(max(n, 1)), "s", n)
	rep.studyCounters(sc)
	return nil
}
