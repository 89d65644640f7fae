// Package gamma is the public API of the Gamma web-tracking measurement
// suite — a full reproduction of "Where in the World Are My Trackers?
// Mapping Web Tracking Flow Across Diverse Geographic Regions" (IMC 2025).
//
// The package wires three layers together:
//
//   - a deterministic synthetic world (countries, tracker organizations
//     with GeoDNS steering, a web of regional and government sites, an
//     Atlas-style probe mesh, and geolocation databases with realistic
//     errors), built by NewWorld;
//   - the Gamma measurement suite itself (browser sessions, DNS/rDNS
//     collection, normalized traceroutes), run per volunteer by
//     RunVolunteer;
//   - the Box-2 analysis pipeline (multi-constraint geolocation, tracker
//     identification, flow analysis), run by Analyze.
//
// RunStudy executes the entire study across all 23 source countries:
//
//	study, err := gamma.RunStudy(context.Background(), 42)
//	if err != nil { ... }
//	fmt.Println(study.Result.Funnel.Trackers)
//
// The drivers behind the suite are interfaces (core.Browser, core.Resolver,
// core.Prober); a field deployment would implement them with Selenium, the
// system resolver and the OS traceroute tools, exactly as the paper's tool
// does.
package gamma

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net/netip"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"github.com/gamma-suite/gamma/internal/browser"
	"github.com/gamma-suite/gamma/internal/core"
	"github.com/gamma-suite/gamma/internal/dnssim"
	"github.com/gamma-suite/gamma/internal/filterlist"
	"github.com/gamma-suite/gamma/internal/netsim"
	"github.com/gamma-suite/gamma/internal/pipeline"
	"github.com/gamma-suite/gamma/internal/rng"
	"github.com/gamma-suite/gamma/internal/sched"
	"github.com/gamma-suite/gamma/internal/targets"
	"github.com/gamma-suite/gamma/internal/tracert"
	"github.com/gamma-suite/gamma/internal/websim"
	"github.com/gamma-suite/gamma/internal/worldgen"
)

// World is the synthetic study environment. See worldgen for its contents.
type World = worldgen.World

// Dataset is a volunteer's uploaded recording.
type Dataset = core.Dataset

// Result is the analyzed study corpus.
type Result = pipeline.Result

// Selection is a country's chosen target list.
type Selection = targets.Selection

// NewWorld builds the calibrated synthetic world for a seed. Identical
// seeds produce identical worlds.
func NewWorld(seed uint64) (*World, error) { return worldgen.Build(seed) }

// SelectTargets runs the §3.2 target-selection method for every source
// country: top-50 regional sites from the ranking sources (with adult and
// banned sites removed) plus up to 50 government sites from the
// Tranco-style list with the search fallback.
func SelectTargets(w *World) (map[string]Selection, error) {
	src := targets.Sources{
		Similarweb: w.Rankings.Similarweb,
		Semrush:    w.Rankings.Semrush,
		Ahrefs:     w.Rankings.Ahrefs,
	}
	out := make(map[string]Selection, len(w.SourceCountries()))
	for _, cc := range w.SourceCountries() {
		banned := map[string]bool{}
		for _, d := range w.BannedSites[cc] {
			banned[d] = true
		}
		exclude := func(domain string) bool {
			if banned[domain] {
				return true
			}
			site, ok := w.Web.Site(domain)
			return ok && site.Category == "adult"
		}
		sel, err := targets.Select(cc, src, w.Tranco, w.GovIndex[cc], exclude)
		if err != nil {
			return nil, fmt.Errorf("gamma: select targets for %s: %w", cc, err)
		}
		out[cc] = sel
	}
	return out, nil
}

// --- simulation-backed drivers ---

type simBrowser struct{ b *browser.Browser }

func (s simBrowser) Load(_ context.Context, site string) (core.PageRecord, error) {
	pl := s.b.Load(site)
	rec := core.PageRecord{
		Site:       pl.SiteDomain,
		URL:        pl.SiteURL,
		OK:         pl.OK,
		FailReason: pl.FailReason,
		DurationMs: pl.DurationMs,
	}
	for _, r := range pl.Requests {
		rec.Requests = append(rec.Requests, core.RequestRecord{
			URL: r.URL, Domain: r.Domain, Type: r.Type,
			Initiator: r.Initiator, Blocked: r.Blocked,
			ThirdParty: r.ThirdParty, SetCookies: r.SetCookies,
		})
	}
	return rec, nil
}

type simResolver struct {
	dns    *dnssim.Server
	client dnssim.Client
}

func (s simResolver) Resolve(_ context.Context, domain string) (netip.Addr, error) {
	return s.dns.Resolve(domain, s.client)
}

// ResolveChain exposes CNAME chains (core.ChainResolver).
func (s simResolver) ResolveChain(_ context.Context, domain string) (netip.Addr, []string, error) {
	return s.dns.ResolveChain(domain, s.client)
}

func (s simResolver) Reverse(_ context.Context, addr netip.Addr) (string, bool) {
	return s.dns.ReversePTR(addr)
}

// simProber launches simulated traceroutes and round-trips them through
// the OS-specific output format the volunteer's machine would produce,
// exercising the tracert portability layer on the hot path. It owns a
// reusable trace buffer and a reusable output buffer, so a probe
// allocates only the Normalized it returns; the mutex keeps the prober
// safe for concurrent probes even though each volunteer runs
// single-threaded by default.
type simProber struct {
	net       *netsim.Network
	vantageID string
	format    tracert.Format

	mu  sync.Mutex
	buf netsim.TraceBuf
	out []byte
}

func (s *simProber) Traceroute(_ context.Context, dst netip.Addr) (tracert.Normalized, error) {
	// The trace result aliases buf and the rendered text lives in out, so
	// the lock is held until Parse has copied what it keeps.
	s.mu.Lock()
	defer s.mu.Unlock()
	res, err := s.net.TracerouteInto(s.vantageID, dst, &s.buf)
	if err != nil {
		return tracert.Normalized{}, err
	}
	s.out, err = tracert.AppendRender(s.out[:0], res, s.format)
	if err != nil {
		return tracert.Normalized{}, err
	}
	return tracert.Parse(s.out)
}

// volunteerOS picks the probe-output dialect for a volunteer's machine:
// Windows tracert, a scapy-based prober, mtr, or plain traceroute.
func volunteerOS(seed uint64, cc string) tracert.Format {
	r := rng.New(seed, "volunteer-os", cc)
	switch r.IntN(4) {
	case 0:
		return tracert.FormatWindows
	case 1:
		return tracert.FormatScapy
	case 2:
		return tracert.FormatMTR
	default:
		return tracert.FormatLinux
	}
}

// VolunteerEnv assembles the suite drivers for one source country's
// primary volunteer.
func VolunteerEnv(w *World, cc string) (core.Env, core.Config, error) {
	vol, ok := w.Volunteers[cc]
	if !ok {
		return core.Env{}, core.Config{}, fmt.Errorf("gamma: no volunteer in %s", cc)
	}
	return VolunteerEnvFor(w, vol)
}

// VolunteerEnvFor assembles the suite drivers for any volunteer — primary
// or secondary (worlds built with SecondaryVantages recruit two per
// country, lifting the paper's single-ISP limitation).
func VolunteerEnvFor(w *World, vol *worldgen.Volunteer) (core.Env, core.Config, error) {
	env, cfg := volunteerEnv(w, vol, "")
	return env, cfg, nil
}

// volunteerEnv assembles a volunteer's drivers and configuration (without
// targets). A non-empty session tags the volunteer ID, and the browser
// session keyed by it draws its own ad rotations and load failures.
func volunteerEnv(w *World, vol *worldgen.Volunteer, session string) (core.Env, core.Config) {
	cc := vol.Country
	id := vol.VantageID
	if session != "" {
		id += "/" + session
	}
	bcfg := browser.DefaultConfig(w.Seed, id)
	bcfg.Country = cc
	bcfg.LoadFailureProb = vol.LoadFailureProb
	bcfg.Pages = w.Pages
	env := core.Env{
		Browser: simBrowser{b: browser.New(w.Web, bcfg)},
		Resolver: simResolver{dns: w.DNS, client: dnssim.Client{
			Country: cc, City: vol.City,
		}},
		Clock: core.StudyClock(),
	}
	if !vol.TracerouteOptOut {
		env.Prober = &simProber{
			net:       w.Net,
			vantageID: vol.VantageID,
			format:    volunteerOS(w.Seed, cc),
		}
	}

	optOuts := make(map[string]bool, len(vol.OptOutSites))
	for _, d := range vol.OptOutSites {
		optOuts[d] = true
	}
	cfg := core.Config{
		VolunteerID:       id,
		Country:           cc,
		City:              vol.City.ID(),
		VolunteerIP:       vol.Addr.String(),
		OptOutSites:       optOuts,
		TracerouteEnabled: !vol.TracerouteOptOut,
	}
	return env, cfg
}

// RunVolunteer executes Gamma for one country against its selected
// targets, returning the dataset the volunteer would upload.
func RunVolunteer(ctx context.Context, w *World, cc string, sel Selection) (*Dataset, error) {
	vol, ok := w.Volunteers[cc]
	if !ok {
		return nil, fmt.Errorf("gamma: no volunteer in %s", cc)
	}
	return RunVolunteerAs(ctx, w, vol, sel)
}

// RunVolunteerAs executes Gamma as a specific volunteer.
func RunVolunteerAs(ctx context.Context, w *World, vol *worldgen.Volunteer, sel Selection) (*Dataset, error) {
	return RunVolunteerSession(ctx, w, vol, sel, "")
}

// RunVolunteerSession executes Gamma as a volunteer under a session tag:
// distinct tags draw different ad rotations and load-failure outcomes,
// modelling repeated visits (the paper recommends multiple runs per site
// to smooth single-visit variability).
func RunVolunteerSession(ctx context.Context, w *World, vol *worldgen.Volunteer, sel Selection, session string) (*Dataset, error) {
	env, cfg := volunteerEnv(w, vol, session)
	cfg.Targets = sel.Targets()
	suite, err := core.New(cfg, env)
	if err != nil {
		return nil, err
	}
	return suite.Run(ctx)
}

// PipelineEnv derives the Box-2 environment from a world.
func PipelineEnv(w *World) pipeline.Env {
	regional := make(map[string]*filterlist.Engine, len(w.RegionalLists))
	for cc, l := range w.RegionalLists {
		regional[cc] = filterlist.NewEngine(l)
	}
	return pipeline.Env{
		Reg:           w.Registry,
		Net:           w.Net,
		IPMap:         w.IPMap,
		Ref:           w.RefLat,
		Mesh:          w.Mesh,
		Lists:         filterlist.NewEngine(w.EasyList, w.EasyPrivacy),
		RegionalLists: regional,
		Orgs:          w.Orgs,
	}
}

// Analyze runs the Box-2 pipeline over volunteer datasets. Countries are
// analyzed concurrently over GOMAXPROCS workers; use AnalyzeWithWorkers to
// bound or serialize the pool. The result is byte-identical for any worker
// count (see internal/pipeline's golden/differential harness).
func Analyze(w *World, datasets []*Dataset) (*Result, error) {
	return AnalyzeWithWorkers(w, datasets, 0)
}

// AnalyzeWithWorkers runs Box 2 with a bounded analysis worker pool;
// workers <= 0 uses runtime.GOMAXPROCS(0), 1 forces a serial analysis.
func AnalyzeWithWorkers(w *World, datasets []*Dataset, workers int) (*Result, error) {
	env := PipelineEnv(w)
	env.AnalysisWorkers = workers
	return pipeline.Process(env, datasets)
}

// Study bundles a complete end-to-end run.
type Study struct {
	World      *World
	Selections map[string]Selection
	Datasets   map[string]*Dataset
	Result     *Result
	// Sched snapshots the campaign scheduler's counters (volunteer
	// attempts, retries, latencies) for the run that produced this study.
	Sched sched.Stats
}

// RunStudy builds a world, selects targets, runs every volunteer, and
// analyzes the combined data — the entire paper in one call.
//
// Volunteers run concurrently through the campaign scheduler; on the
// first fatal volunteer error the remaining work is cancelled via a
// derived context and every error observed is reported through
// errors.Join. Use RunStudyWithOptions for retries, checkpointing, and
// partial-result campaigns.
func RunStudy(ctx context.Context, seed uint64) (*Study, error) {
	study, err := RunStudyWithOptions(ctx, seed, StudyOptions{})
	if err != nil {
		return nil, err
	}
	return study, nil
}

// StudyOptions tunes a study campaign (RunStudyWithOptions). The zero
// value reproduces RunStudy: one attempt per volunteer, GOMAXPROCS
// workers, fail-fast.
type StudyOptions struct {
	// Workers bounds both concurrently running volunteers and concurrent
	// per-country analyses in Box 2 (pipeline.Env.AnalysisWorkers); <= 0
	// uses runtime.GOMAXPROCS(0), 1 runs both serially. The result is
	// byte-identical for any value: every stochastic draw is keyed by
	// stable strings, never by scheduling order.
	Workers int
	// Retry re-runs a failed volunteer (zero value: single attempt). It
	// is the campaign's only retry layer: each retry resumes the
	// volunteer's dataset from its first unrecorded target, so completed
	// targets are never re-measured.
	Retry sched.RetryPolicy
	// VolunteerTimeout bounds one volunteer attempt (0 = unbounded).
	VolunteerTimeout time.Duration
	// ContinuePastFailures keeps the campaign running when a volunteer
	// fails terminally: the study analyzes every completed dataset and
	// the returned error joins one error per failed volunteer. When
	// false, the first fatal error cancels outstanding volunteers.
	ContinuePastFailures bool
	// Clock paces volunteer retries and timeouts. Nil uses the wall
	// clock; tests inject sched.NewFakeClock so nothing sleeps for real.
	Clock sched.Clock
	// CheckpointDir, when set, persists each volunteer's dataset through
	// core.SaveDataset after every attempt that recorded a page, and
	// resumes from an existing checkpoint on start — the §3.3 "resume
	// from where it was last stopped" behaviour at campaign scope. Files
	// are <dir>/<cc>.json; a file that exists but cannot be loaded or
	// resumed fails its volunteer and is left on disk.
	CheckpointDir string
	// EnvHook, when set, rewrites a volunteer's drivers before the suite
	// is built. Tests use it to inject transient faults or to make
	// specific volunteers fail permanently.
	EnvHook func(cc string, env core.Env) core.Env
	// DisableCaches builds the world with every measurement-plane memo
	// off (worldgen.Options.DisableCaches): the reference mode the
	// cached-vs-uncached equivalence test compares against byte for byte.
	DisableCaches bool
}

// RunStudyWithOptions runs the full study as a fault-tolerant campaign:
// volunteers are scheduled over a bounded worker pool with deterministic
// retry/backoff, failed volunteers resume rather than restart, and
// completed datasets are kept even when others fail.
//
// The returned *Study is non-nil whenever the world was built: on error it
// carries every completed dataset (and, with ContinuePastFailures, the
// analysis of the surviving corpus). The error joins one entry per failed
// volunteer, each naming its country.
//
// Determinism invariant: identical seeds produce byte-identical datasets
// regardless of Workers and of how many campaign retries a volunteer
// needed — every stochastic draw (world, measurement, backoff) is keyed by
// stable strings, the simulated drivers are stateless per call, and a
// failed attempt keeps only the in-order prefix of its pages.
func RunStudyWithOptions(ctx context.Context, seed uint64, opts StudyOptions) (*Study, error) {
	w, err := worldgen.BuildWithOptions(seed, worldgen.Options{DisableCaches: opts.DisableCaches})
	if err != nil {
		return nil, err
	}
	sels, err := SelectTargets(w)
	if err != nil {
		return nil, err
	}
	study := &Study{World: w, Selections: sels, Datasets: make(map[string]*Dataset)}
	countries := w.SourceCountries()
	units := make([]sched.Unit[*Dataset], len(countries))
	for i, cc := range countries {
		cc := cc
		units[i] = sched.Unit[*Dataset]{
			ID:  "volunteer/" + cc,
			Run: volunteerUnit(w, cc, sels[cc], opts),
		}
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	pool := sched.New[*Dataset](sched.Options{
		Workers:  workers,
		Timeout:  opts.VolunteerTimeout,
		Retry:    opts.Retry,
		Seed:     seed,
		Clock:    opts.Clock,
		FailFast: !opts.ContinuePastFailures,
	})
	results, runErr := pool.Run(ctx, units)
	study.Sched = pool.Stats()

	var errs []error
	var all []*Dataset
	for i, r := range results {
		cc := countries[i]
		switch {
		case r.Err == nil:
			study.Datasets[cc] = r.Value
			all = append(all, r.Value)
		case !r.Skipped && !errors.Is(r.Err, context.Canceled):
			errs = append(errs, fmt.Errorf("gamma: volunteer %s: %w", cc, r.Err))
		}
	}
	if runErr != nil {
		errs = append(errs, runErr)
	}
	if len(errs) > 0 && !opts.ContinuePastFailures {
		// Fail-fast campaigns keep completed datasets but skip analysis.
		return study, errors.Join(errs...)
	}
	if len(all) > 0 {
		res, aerr := AnalyzeWithWorkers(w, all, workers)
		if aerr != nil {
			errs = append(errs, aerr)
		} else {
			study.Result = res
		}
	}
	return study, errors.Join(errs...)
}

// volunteerUnit builds the campaign work function for one country. State
// (drivers, suite, dataset) persists across retry attempts so each retry
// resumes from the first unrecorded target.
func volunteerUnit(w *World, cc string, sel Selection, opts StudyOptions) func(context.Context) (*Dataset, error) {
	var (
		mu      sync.Mutex
		inited  bool
		initErr error
		suite   *core.Suite
		ds      *Dataset
		ckpt    string
	)
	return func(ctx context.Context) (*Dataset, error) {
		mu.Lock()
		defer mu.Unlock()
		if !inited {
			inited = true
			initErr = func() error {
				vol, ok := w.Volunteers[cc]
				if !ok {
					return fmt.Errorf("gamma: no volunteer in %s", cc)
				}
				env, cfg := volunteerEnv(w, vol, "")
				if opts.EnvHook != nil {
					env = opts.EnvHook(cc, env)
				}
				cfg.Targets = sel.Targets()
				var err error
				suite, err = core.New(cfg, env)
				if err != nil {
					return err
				}
				if opts.CheckpointDir != "" {
					ckpt = filepath.Join(opts.CheckpointDir, cc+".json")
					loaded, err := core.LoadDataset(ckpt)
					if err == nil {
						ds = loaded
						return nil
					}
					if !errors.Is(err, fs.ErrNotExist) {
						// An unreadable checkpoint is kept for inspection,
						// never silently replaced by a fresh run.
						return fmt.Errorf("checkpoint %s: %w", ckpt, err)
					}
				}
				ds = suite.NewDataset()
				return nil
			}()
		}
		if initErr != nil {
			// Configuration problems are terminal; no retry can fix them.
			return nil, sched.Permanent(initErr)
		}
		recorded := len(ds.Pages)
		err := suite.Resume(ctx, ds)
		if ckpt != "" && len(ds.Pages) > recorded {
			// Persist progress even on failure so a later attempt — or a
			// whole later campaign — resumes instead of restarting. An
			// attempt that recorded nothing leaves the file as it was.
			if serr := core.SaveDataset(ckpt, ds); err == nil && serr != nil {
				err = serr
			}
		}
		if err != nil {
			return nil, err
		}
		return ds, nil
	}
}

// SiteKindOf reports a domain's site kind in the world ("regional",
// "government", "global"), for reporting.
func SiteKindOf(w *World, domain string) (string, bool) {
	site, ok := w.Web.Site(strings.ToLower(domain))
	if !ok {
		return "", false
	}
	return site.Kind.String(), true
}

// WebSiteCategory exposes a site's category for reporting.
func WebSiteCategory(w *World, domain string) (string, bool) {
	site, ok := w.Web.Site(domain)
	if !ok {
		return "", false
	}
	return site.Category, true
}

var _ = websim.Kind(0) // keep websim linked for documentation references
