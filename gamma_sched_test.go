package gamma_test

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	gamma "github.com/gamma-suite/gamma"
	"github.com/gamma-suite/gamma/internal/core"
	"github.com/gamma-suite/gamma/internal/sched"
)

func datasetBytes(t *testing.T, ds *gamma.Dataset) string {
	t.Helper()
	b, err := json.Marshal(ds)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// requireSameDatasets asserts got reproduces want byte for byte.
func requireSameDatasets(t *testing.T, want, got map[string]*gamma.Dataset) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("datasets = %d, want %d", len(got), len(want))
	}
	for cc, w := range want {
		g, ok := got[cc]
		if !ok {
			t.Fatalf("country %s missing", cc)
		}
		if datasetBytes(t, g) != datasetBytes(t, w) {
			t.Errorf("%s: dataset differs from baseline", cc)
		}
	}
}

func TestStudyDeterministicAcrossWorkers(t *testing.T) {
	base := fullStudy(t)
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		s, err := gamma.RunStudyWithOptions(context.Background(), 42, gamma.StudyOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		requireSameDatasets(t, base.Datasets, s.Datasets)
		if !reflect.DeepEqual(s.Result.Funnel, base.Result.Funnel) {
			t.Errorf("workers=%d: funnel differs: %+v vs %+v", workers, s.Result.Funnel, base.Result.Funnel)
		}
		if s.Sched.Units != 23 || s.Sched.Succeeded != 23 {
			t.Errorf("workers=%d: sched stats = %+v", workers, s.Sched)
		}
	}
}

// faultRate is the transient-fault rate of the campaign tests: 2% of
// driver calls fail. Each fault ends its volunteer's attempt, so a
// volunteer needs one retry per fault it draws.
const faultRate = 0.02

// faultRetry bounds a faulted volunteer's attempts. At seed 42 and a 2%
// rate the unluckiest volunteer draws 101 faults (the campaign makes 1,385
// attempts in all); the bound leaves room for other seeds without letting
// a fault that never clears spin forever.
var faultRetry = sched.RetryPolicy{MaxAttempts: 400}

func TestStudyFaultInjectionConverges(t *testing.T) {
	base := fullStudy(t)
	s, err := gamma.RunStudyWithOptions(context.Background(), 42, gamma.StudyOptions{
		Workers: 4,
		EnvHook: faultyHook(42, faultRate),
		Retry:   faultRetry,
	})
	if err != nil {
		t.Fatalf("2%% transient faults should be absorbed by volunteer retries: %v", err)
	}
	requireSameDatasets(t, base.Datasets, s.Datasets)
	if !reflect.DeepEqual(s.Result.Funnel, base.Result.Funnel) {
		t.Errorf("faulty-run funnel differs: %+v vs %+v", s.Result.Funnel, base.Result.Funnel)
	}
	if s.Sched.Retries == 0 {
		t.Error("no volunteer retried: the faults were not injected")
	}

	// And the whole faulty campaign is itself reproducible.
	s2, err := gamma.RunStudyWithOptions(context.Background(), 42, gamma.StudyOptions{
		Workers: 2,
		EnvHook: faultyHook(42, faultRate),
		Retry:   faultRetry,
	})
	if err != nil {
		t.Fatal(err)
	}
	requireSameDatasets(t, s.Datasets, s2.Datasets)
	if s2.Sched.Attempts != s.Sched.Attempts {
		t.Errorf("attempts = %d with 2 workers, %d with 4: the fault pattern depends on scheduling", s2.Sched.Attempts, s.Sched.Attempts)
	}
}

// faultAtBrowser faults the first load of one site and logs every load.
type faultAtBrowser struct {
	inner core.Browser
	site  string

	mu      sync.Mutex
	loads   []string
	faulted bool
}

func (b *faultAtBrowser) Load(ctx context.Context, site string) (core.PageRecord, error) {
	b.mu.Lock()
	b.loads = append(b.loads, site)
	fault := site == b.site && !b.faulted
	b.faulted = b.faulted || fault
	b.mu.Unlock()
	if fault {
		return core.PageRecord{}, core.Fault(fmt.Errorf("injected: browser crashed on %s", site))
	}
	return b.inner.Load(ctx, site)
}

// TestVolunteerRetryResumesFromFailedTarget pins what the one retry layer
// means: a volunteer attempt that faults on target k keeps targets before
// k, and the retry measures only targets k onward.
func TestVolunteerRetryResumesFromFailedTarget(t *testing.T) {
	base := fullStudy(t)
	cc := base.World.SourceCountries()[0]
	targets := base.Selections[cc].Targets()
	const k = 10
	fb := &faultAtBrowser{site: targets[k].Domain}
	s, err := gamma.RunStudyWithOptions(context.Background(), 42, gamma.StudyOptions{
		Workers: 4,
		Retry:   sched.RetryPolicy{MaxAttempts: 2},
		EnvHook: func(c string, env core.Env) core.Env {
			if c == cc {
				fb.inner = env.Browser
				env.Browser = fb
			}
			return env
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	requireSameDatasets(t, base.Datasets, s.Datasets)
	if s.Sched.Retries != 1 {
		t.Errorf("retries = %d, want exactly the one volunteer retry", s.Sched.Retries)
	}
	// The log is: targets[:k] once, the faulted load of targets[k], then
	// the retry's loads of targets[k:]. Opted-out sites are never loaded.
	optedOut := map[string]bool{}
	for _, p := range s.Datasets[cc].Pages {
		if p.OptedOut {
			optedOut[p.Target.Domain] = true
		}
	}
	if optedOut[targets[k].Domain] {
		t.Fatalf("target %d (%s) is opted out; pick another", k, targets[k].Domain)
	}
	var want []string
	for _, tg := range append(targets[:k+1:k+1], targets[k:]...) {
		if !optedOut[tg.Domain] {
			want = append(want, tg.Domain)
		}
	}
	if !reflect.DeepEqual(fb.loads, want) {
		t.Errorf("loads = %v\nwant %v", fb.loads, want)
	}
}

// deadBrowser fails every load with a plain (non-transient) error.
type deadBrowser struct{}

func (deadBrowser) Load(context.Context, string) (core.PageRecord, error) {
	return core.PageRecord{}, fmt.Errorf("injected: browser binary missing")
}

func killCountry(cc string) func(string, core.Env) core.Env {
	return func(c string, env core.Env) core.Env {
		if c == cc {
			env.Browser = deadBrowser{}
		}
		return env
	}
}

func TestContinuePastFailuresYieldsPartialStudy(t *testing.T) {
	base := fullStudy(t)
	dead := base.World.SourceCountries()[0]
	s, err := gamma.RunStudyWithOptions(context.Background(), 42, gamma.StudyOptions{
		Workers:              4,
		ContinuePastFailures: true,
		EnvHook:              killCountry(dead),
	})
	if err == nil || !strings.Contains(err.Error(), "volunteer "+dead) {
		t.Fatalf("error must name the failed country %s: %v", dead, err)
	}
	if s == nil {
		t.Fatal("partial study must be returned alongside the error")
	}
	if len(s.Datasets) != 22 {
		t.Fatalf("datasets = %d, want the 22 surviving countries", len(s.Datasets))
	}
	if _, ok := s.Datasets[dead]; ok {
		t.Errorf("failed country %s must not contribute a dataset", dead)
	}
	if s.Result == nil || len(s.Result.Countries) != 22 {
		t.Fatalf("partial analysis should cover 22 countries: %+v", s.Result)
	}
	// The surviving datasets are untouched by the failure.
	for cc, ds := range s.Datasets {
		if datasetBytes(t, ds) != datasetBytes(t, base.Datasets[cc]) {
			t.Errorf("%s: dataset differs from baseline", cc)
		}
	}
	if s.Sched.Failed != 1 || s.Sched.Succeeded != 22 {
		t.Errorf("sched stats = %+v", s.Sched)
	}
}

func TestFailFastCancelsCampaign(t *testing.T) {
	base := fullStudy(t)
	dead := base.World.SourceCountries()[0]
	s, err := gamma.RunStudyWithOptions(context.Background(), 42, gamma.StudyOptions{
		Workers: 1, // the dead country is scheduled first: everything after is skipped
		EnvHook: killCountry(dead),
	})
	if err == nil || !strings.Contains(err.Error(), "volunteer "+dead) {
		t.Fatalf("fail-fast error must name the country: %v", err)
	}
	if s == nil || s.Result != nil {
		t.Error("fail-fast campaigns must not analyze a partial corpus")
	}
	if len(s.Datasets) >= 23 {
		t.Errorf("datasets = %d, campaign should have stopped early", len(s.Datasets))
	}
	if s.Sched.Skipped == 0 {
		t.Errorf("queued volunteers should be skipped: %+v", s.Sched)
	}
}

func TestCheckpointResumeAcrossCampaigns(t *testing.T) {
	base := fullStudy(t)
	dir := t.TempDir()

	// Campaign 1: faults and no retries — most volunteers fail, but every
	// partial dataset is checkpointed.
	_, err := gamma.RunStudyWithOptions(context.Background(), 42, gamma.StudyOptions{
		Workers:              4,
		EnvHook:              faultyHook(42, faultRate),
		ContinuePastFailures: true,
		CheckpointDir:        dir,
	})
	if err == nil {
		t.Skip("improbable: every volunteer survived without a retry")
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	if len(files) == 0 {
		t.Fatal("failed campaign left no checkpoints")
	}

	// Campaign 2: same seed and directory, with volunteer retries —
	// resumes from the checkpoints and converges to the fault-free
	// baseline.
	s2, err := gamma.RunStudyWithOptions(context.Background(), 42, gamma.StudyOptions{
		Workers:              4,
		EnvHook:              faultyHook(42, faultRate),
		Retry:                faultRetry,
		ContinuePastFailures: true,
		CheckpointDir:        dir,
	})
	if err != nil {
		t.Fatalf("resumed campaign should converge: %v", err)
	}
	requireSameDatasets(t, base.Datasets, s2.Datasets)

	// Checkpoints on disk now hold the complete datasets.
	for _, cc := range base.World.SourceCountries() {
		ds, err := core.LoadDataset(filepath.Join(dir, cc+".json"))
		if err != nil {
			t.Fatalf("checkpoint for %s: %v", cc, err)
		}
		// Analysis anonymizes the in-memory datasets; checkpoints are
		// written before it.
		ds.Anonymize()
		if datasetBytes(t, ds) != datasetBytes(t, base.Datasets[cc]) {
			t.Errorf("%s checkpoint differs from the baseline dataset", cc)
		}
	}
}

// TestUnresumableCheckpointKept: a checkpoint that exists but cannot be
// resumed fails its volunteer, is named in the error, and stays on disk
// byte for byte; volunteers without a checkpoint start fresh.
func TestUnresumableCheckpointKept(t *testing.T) {
	base := fullStudy(t)
	ccs := base.World.SourceCountries()
	garbage, foreign := ccs[0], ccs[1]
	dir := t.TempDir()
	files := map[string][]byte{
		garbage: []byte("{not a dataset"),
		// Another volunteer's dataset, copied over this one's file.
		foreign: []byte(datasetBytes(t, base.Datasets[ccs[2]])),
	}
	for cc, b := range files {
		if err := os.WriteFile(filepath.Join(dir, cc+".json"), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := gamma.RunStudyWithOptions(context.Background(), 42, gamma.StudyOptions{
		Workers:              4,
		Retry:                sched.RetryPolicy{MaxAttempts: 3},
		ContinuePastFailures: true,
		CheckpointDir:        dir,
	})
	if err == nil {
		t.Fatal("unresumable checkpoints must fail their volunteers")
	}
	for cc, b := range files {
		path := filepath.Join(dir, cc+".json")
		if cc == garbage && !strings.Contains(err.Error(), path) {
			t.Errorf("error must name the corrupt file %s: %v", path, err)
		}
		if !strings.Contains(err.Error(), "volunteer "+cc) {
			t.Errorf("error must name volunteer %s: %v", cc, err)
		}
		if _, ok := s.Datasets[cc]; ok {
			t.Errorf("%s: an unresumable checkpoint must not yield a dataset", cc)
		}
		got, rerr := os.ReadFile(path)
		if rerr != nil || string(got) != string(b) {
			t.Errorf("%s: checkpoint was changed or removed", cc)
		}
	}
	if len(s.Datasets) != len(ccs)-2 || s.Sched.Failed != 2 {
		t.Errorf("datasets = %d, sched = %+v; want every other volunteer fresh", len(s.Datasets), s.Sched)
	}
	if s.Sched.Retries != 0 {
		t.Errorf("retries = %d: no retry can fix a checkpoint, so none may be spent", s.Sched.Retries)
	}
}

func TestRunStudyCompatOnError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s, err := gamma.RunStudy(ctx, 42)
	if err == nil {
		t.Fatal("cancelled context must error")
	}
	if s != nil {
		t.Error("RunStudy keeps its original contract: nil study on error")
	}
}
