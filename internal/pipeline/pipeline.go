// Package pipeline is "Box 2" of the study's method (Figure 1): it ingests
// the JSON datasets volunteers upload and produces the analyzed corpus —
// webdriver noise stripped (§5), source traceroutes substituted from Atlas
// probes where the volunteer's probes failed or were opted out (§4.1.1),
// every responding server classified through the multi-constraint
// geolocation framework, trackers identified via filter lists plus
// WhoTracksMe-style manual inspection (§4.2), organizations and hosting
// ASes attributed, first/third-party relationships resolved (§6.7), and
// volunteer IPs anonymized (§3.5).
package pipeline

import (
	"context"
	"fmt"
	"net/netip"
	"runtime"
	"sort"
	"strings"

	"github.com/gamma-suite/gamma/internal/atlas"
	"github.com/gamma-suite/gamma/internal/core"
	"github.com/gamma-suite/gamma/internal/filterlist"
	"github.com/gamma-suite/gamma/internal/geo"
	"github.com/gamma-suite/gamma/internal/geodb"
	"github.com/gamma-suite/gamma/internal/geoloc"
	"github.com/gamma-suite/gamma/internal/netsim"
	"github.com/gamma-suite/gamma/internal/sched"
	"github.com/gamma-suite/gamma/internal/tracert"
	"github.com/gamma-suite/gamma/internal/trackerdb"
)

// Env bundles the knowledge sources and infrastructure Box 2 consumes.
type Env struct {
	Reg   *geo.Registry
	Net   *netsim.Network // AS-level lookups (§6.5)
	IPMap *geodb.DB
	Ref   *geodb.RefTable
	Mesh  *atlas.Mesh

	// Lists is the global filter-list engine (EasyList + EasyPrivacy);
	// RegionalLists adds country-specific engines where available.
	Lists         *filterlist.Engine
	RegionalLists map[string]*filterlist.Engine

	Orgs *trackerdb.DB

	// GeolocConfig tunes the constraint cascade; zero value uses defaults.
	GeolocConfig geoloc.Config

	// AnalysisWorkers bounds how many countries Process analyzes
	// concurrently; <= 0 uses runtime.GOMAXPROCS(0). The output is
	// byte-identical for every value — the golden/differential harness in
	// golden_test.go is the proof obligation for that invariant.
	AnalysisWorkers int

	// DisableAnalysisCaches reverts to the serial-era cache topology: a
	// fresh geolocation framework per country (no cross-country destination
	// sharing) and unmemoized filter-list matching. Verdicts are identical
	// either way — the framework and the engines are deterministic pure
	// functions — so this exists for benchmarking and differential tests.
	DisableAnalysisCaches bool
}

// trackerCategories are the org categories manual inspection labels as
// tracking/advertising businesses.
var trackerCategories = map[string]bool{
	"advertising": true, "analytics": true, "social": true, "video": true,
}

// DomainObs is the analyzed record for one domain observed on one site.
type DomainObs struct {
	Domain      string       `json:"domain"`
	Addr        string       `json:"addr,omitempty"`
	Class       geoloc.Class `json:"class"`
	Stage       geoloc.Stage `json:"stage,omitempty"`
	DestCountry string       `json:"dest_country,omitempty"`
	DestCity    string       `json:"dest_city,omitempty"`

	IsTracker     bool   `json:"is_tracker,omitempty"`
	TrackerSource string `json:"tracker_source,omitempty"` // easylist, easyprivacy, regional-*, manual, cname:*
	// Cloaked marks a first-party-looking domain whose CNAME chain ends in
	// tracker infrastructure (CNAME cloaking): invisible to list-based
	// blocking, caught by the recorded DNS chains.
	Cloaked    bool     `json:"cloaked,omitempty"`
	CNAMEChain []string `json:"cname_chain,omitempty"`
	Org        string   `json:"org,omitempty"`
	OrgCountry string   `json:"org_country,omitempty"`
	HostASN    uint32   `json:"host_asn,omitempty"`
	HostASOrg  string   `json:"host_as_org,omitempty"`
	FirstParty bool     `json:"first_party,omitempty"`
}

// SiteResult is the analyzed record for one target site in one country.
type SiteResult struct {
	Country  string          `json:"country"`
	Site     string          `json:"site"`
	Kind     core.TargetKind `json:"kind"`
	LoadOK   bool            `json:"load_ok"`
	OptedOut bool            `json:"opted_out,omitempty"`
	Domains  []DomainObs     `json:"domains,omitempty"`
}

// NonLocalTrackers returns the site's retained non-local tracker domains.
func (s SiteResult) NonLocalTrackers() []DomainObs {
	var out []DomainObs
	for _, d := range s.Domains {
		if d.Class == geoloc.NonLocal && d.IsTracker {
			out = append(out, d)
		}
	}
	return out
}

// TraceStats counts probe activity per country (§5).
type TraceStats struct {
	SourceLaunched int `json:"source_launched"`
	SourceReached  int `json:"source_reached"`
	DestLaunched   int `json:"dest_launched"`
}

// CountryResult aggregates one source country.
type CountryResult struct {
	Country string   `json:"country"`
	City    geo.City `json:"city"`
	// TraceOrigin records whether source traceroutes came from the
	// volunteer or an Atlas substitute probe (and where it sat).
	TraceOrigin string               `json:"trace_origin"`
	Sites       []SiteResult         `json:"sites"`
	Funnel      geoloc.FunnelCounts  `json:"funnel"`
	Traces      TraceStats           `json:"traces"`
	Targets     int                  `json:"targets"`
	OptOuts     int                  `json:"opt_outs"`
	LoadedOK    int                  `json:"loaded_ok"`
	Verdicts    map[string]DomainObs `json:"-"` // per unique domain
}

// SortedDomains returns the country's per-domain verdicts in ascending
// domain order — the stable iteration order the serving and export layers
// build their read indexes from (Verdicts itself is a map and must never
// feed an output path directly).
func (c *CountryResult) SortedDomains() []DomainObs {
	out := make([]DomainObs, 0, len(c.Verdicts))
	for _, domain := range sortedKeys(c.Verdicts) {
		out = append(out, c.Verdicts[domain])
	}
	return out
}

// Funnel is the study-wide §5 accounting.
type Funnel struct {
	Targets            int `json:"targets"`
	TargetsAfterOptOut int `json:"targets_after_opt_out"`
	UniqueTargets      int `json:"unique_targets"`
	LoadedOK           int `json:"loaded_ok"`
	DomainObservations int `json:"domain_observations"` // per-country unique domains, summed
	UniqueDomains      int `json:"unique_domains"`
	UniqueIPs          int `json:"unique_ips"`
	SourceTraceroutes  int `json:"source_traceroutes"`
	DestTraceroutes    int `json:"dest_traceroutes"`
	NonLocalClaimed    int `json:"non_local_claimed"`     // before constraints (≈14K in the paper)
	AfterSOL           int `json:"after_sol_constraints"` // after source+destination constraints (≈6.1K)
	AfterRDNS          int `json:"after_rdns_constraint"` // retained non-local (≈4.7K)
	Trackers           int `json:"trackers"`              // non-local tracker domains (≈2.7K)
	CloakedTrackers    int `json:"cloaked_trackers"`      // CNAME-cloaked subset of the above
}

// AnalysisCacheStats reports analysis-cache effectiveness for one Process
// run: destination-traceroute reuse in the geolocation framework and
// filter-list match memoization.
type AnalysisCacheStats struct {
	Geoloc geoloc.CacheStats          `json:"geoloc"`
	Lists  filterlist.MatchCacheStats `json:"lists"`
}

// Result is the fully analyzed study corpus.
type Result struct {
	Countries map[string]*CountryResult `json:"countries"`
	Funnel    Funnel                    `json:"funnel"`
	// TrackerDomains are the distinct identified non-local tracker domains
	// with their identification source (the paper's 505 = 441 list + 64
	// manual).
	TrackerDomains map[string]string `json:"tracker_domains"`
	// Caches reports cache behaviour for the run. Excluded from the
	// serialized corpus: it describes the run, not the measured world.
	Caches AnalysisCacheStats `json:"-"`
}

// CountryCodes returns the analyzed countries in sorted order.
func (r *Result) CountryCodes() []string {
	out := make([]string, 0, len(r.Countries))
	for cc := range r.Countries {
		out = append(out, cc)
	}
	sort.Strings(out)
	return out
}

// Process runs Box 2 over the uploaded datasets. Countries are analyzed
// concurrently over Env.AnalysisWorkers workers and merged deterministically
// in sorted country-code order, so the result is byte-identical to a serial
// run for any worker count.
func Process(env Env, datasets []*core.Dataset) (*Result, error) {
	if env.Reg == nil || env.IPMap == nil {
		return nil, fmt.Errorf("pipeline: Env requires Reg and IPMap")
	}
	// A country code identifies one volunteer dataset; two datasets claiming
	// the same country would silently shadow each other in the result map.
	seen := map[string]int{}
	for i, ds := range datasets {
		if j, dup := seen[ds.Country]; dup {
			return nil, fmt.Errorf("pipeline: duplicate country %s in datasets %d and %d", ds.Country, j, i)
		}
		seen[ds.Country] = i
	}

	// The geolocation framework and filter-list caches are shared across
	// countries: the same tracker IPs and URLs recur in every dataset, and
	// both are deterministic pure functions of their inputs, so sharing
	// changes wall-clock only, never verdicts.
	match := newMatchers(env)
	var sharedFW *geoloc.Framework
	if !env.DisableAnalysisCaches {
		sharedFW = geoloc.New(env.GeolocConfig, env.IPMap, env.Ref, env.Mesh, env.Reg)
	}

	type countryOutcome struct {
		cr *CountryResult
		// geoloc holds the per-country framework's counters when the shared
		// framework is disabled; zero otherwise.
		geoloc geoloc.CacheStats
	}
	units := make([]sched.Unit[countryOutcome], len(datasets))
	for i, ds := range datasets {
		ds := ds
		units[i] = sched.Unit[countryOutcome]{
			ID: "analyze/" + ds.Country,
			Run: func(context.Context) (countryOutcome, error) {
				fw := sharedFW
				if fw == nil {
					fw = geoloc.New(env.GeolocConfig, env.IPMap, env.Ref, env.Mesh, env.Reg)
				}
				cr, err := processCountry(env, match, fw, ds)
				if err != nil {
					return countryOutcome{}, err
				}
				// With the analysis complete, anonymize the volunteer's
				// dataset.
				ds.Anonymize()
				out := countryOutcome{cr: cr}
				if sharedFW == nil {
					out.geoloc = fw.Stats()
				}
				return out, nil
			},
		}
	}
	workers := env.AnalysisWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	pool := sched.New[countryOutcome](sched.Options{Workers: workers})
	results, err := pool.Run(context.Background(), units)
	if err != nil {
		return nil, err
	}
	// Without FailFast every unit has a terminal outcome, so the reported
	// error is deterministic: the first failing dataset in submission order.
	for i, r := range results {
		if r.Err != nil {
			return nil, fmt.Errorf("pipeline: country %s: %w", datasets[i].Country, r.Err)
		}
	}

	res := &Result{
		Countries:      make(map[string]*CountryResult),
		TrackerDomains: make(map[string]string),
	}
	for _, r := range results {
		res.Countries[r.Value.cr.Country] = r.Value.cr
		res.Caches.Geoloc.Hits += r.Value.geoloc.Hits
		res.Caches.Geoloc.Misses += r.Value.geoloc.Misses
		res.Caches.Geoloc.Inflight += r.Value.geoloc.Inflight
	}
	if sharedFW != nil {
		res.Caches.Geoloc = sharedFW.Stats()
	}
	res.Caches.Lists = match.stats()

	// Merge the global dedup sets and the study-wide funnel in sorted
	// country order. Set unions and counter sums are order-independent;
	// TrackerDomains is last-writer-wins per domain, so a fixed order makes
	// the merge deterministic even when countries disagree on a domain's
	// identification source (e.g. two different regional lists).
	globalDomains := map[string]bool{}
	globalIPs := map[string]bool{}
	uniqueTargets := map[string]bool{}
	for _, cc := range res.CountryCodes() {
		cr := res.Countries[cc]
		for domain, obs := range cr.Verdicts {
			globalDomains[domain] = true
			globalIPs[obs.Addr] = true
		}
		for _, s := range cr.Sites {
			uniqueTargets[s.Site] = true
		}
		res.Funnel.Targets += cr.Targets
		res.Funnel.TargetsAfterOptOut += cr.Targets - cr.OptOuts
		res.Funnel.LoadedOK += cr.LoadedOK
		res.Funnel.SourceTraceroutes += cr.Traces.SourceLaunched
		res.Funnel.DestTraceroutes += cr.Traces.DestLaunched
		for _, obs := range cr.Verdicts {
			res.Funnel.DomainObservations++
			claimedNonLocal := obs.Class == geoloc.NonLocal || isPostClassificationStage(obs.Stage)
			if !claimedNonLocal {
				continue
			}
			res.Funnel.NonLocalClaimed++
			if obs.Class == geoloc.NonLocal || obs.Stage == geoloc.StageRDNSConflict {
				res.Funnel.AfterSOL++
			}
			if obs.Class == geoloc.NonLocal {
				res.Funnel.AfterRDNS++
				if obs.IsTracker {
					res.Funnel.Trackers++
					res.TrackerDomains[obs.Domain] = obs.TrackerSource
					if obs.Cloaked {
						res.Funnel.CloakedTrackers++
					}
				}
			}
		}
	}
	res.Funnel.UniqueDomains = len(globalDomains)
	res.Funnel.UniqueIPs = len(globalIPs)
	res.Funnel.UniqueTargets = len(uniqueTargets)
	return res, nil
}

// isPostClassificationStage reports whether a discard happened after the
// IPmap already claimed the server was non-local.
func isPostClassificationStage(s geoloc.Stage) bool {
	switch s {
	case geoloc.StageSourceMissing, geoloc.StageSourceUnreach, geoloc.StageSourceSOL,
		geoloc.StageSourceLatency, geoloc.StageDestNoProbe, geoloc.StageDestUnreach,
		geoloc.StageDestSOL, geoloc.StageDestTooFar, geoloc.StageRDNSConflict:
		return true
	default:
		return false
	}
}

// listMatcher is the engine behaviour tracker identification needs,
// satisfied by both *filterlist.Engine and *filterlist.CachedEngine.
// MatchName is the bare-hostname probe: unlike a hand-built
// "https://"+domain+"/" Match request, it never materializes a URL string.
type listMatcher interface {
	Match(filterlist.Request) (bool, *filterlist.Rule)
	MatchName(domain, pageDomain string) (bool, *filterlist.Rule)
}

// matchers bundles the global and regional filter engines, memoized unless
// Env.DisableAnalysisCaches asks for the raw engines. One matchers value is
// shared by every analysis worker: the same tracker URLs recur across all
// countries, so cross-country memoization is where the cache pays off.
type matchers struct {
	global   listMatcher
	regional map[string]listMatcher
	caches   []*filterlist.CachedEngine
}

func newMatchers(env Env) *matchers {
	m := &matchers{regional: make(map[string]listMatcher, len(env.RegionalLists))}
	wrap := func(e *filterlist.Engine) listMatcher {
		if env.DisableAnalysisCaches {
			return e
		}
		c := filterlist.NewCachedEngine(e)
		m.caches = append(m.caches, c)
		return c
	}
	if env.Lists != nil {
		m.global = wrap(env.Lists)
	}
	for cc, e := range env.RegionalLists {
		if e != nil {
			m.regional[cc] = wrap(e)
		}
	}
	return m
}

// stats sums the match-cache counters across all wrapped engines.
func (m *matchers) stats() filterlist.MatchCacheStats {
	var out filterlist.MatchCacheStats
	for _, c := range m.caches {
		s := c.Stats()
		out.Hits += s.Hits
		out.Misses += s.Misses
	}
	return out
}

func processCountry(env Env, match *matchers, fw *geoloc.Framework, ds *core.Dataset) (*CountryResult, error) {
	volCity, ok := env.Reg.City(ds.City)
	if !ok {
		return nil, fmt.Errorf("unknown volunteer city %q", ds.City)
	}
	if volCity.Country != ds.Country {
		return nil, fmt.Errorf("volunteer city %q is not in country %s", ds.City, ds.Country)
	}
	cr := &CountryResult{
		Country:  ds.Country,
		City:     volCity,
		Verdicts: make(map[string]DomainObs),
	}

	// Collect the volunteer's traceroutes by target address, and decide
	// whether they are usable at all.
	volTraces := map[string]tracert.Normalized{}
	anyReached := false
	for _, p := range ds.Pages {
		for _, tr := range p.Traceroutes {
			cr.Traces.SourceLaunched++
			if tr.Reached {
				anyReached = true
				cr.Traces.SourceReached++
			}
			if _, dup := volTraces[tr.Target]; !dup || tr.Reached {
				volTraces[tr.Target] = tr
			}
		}
	}

	// Gather every (domain -> addr, rdns) observation, excluding webdriver
	// noise.
	noiseDomains := map[string]bool{}
	realDomains := map[string]bool{}
	for _, p := range ds.Pages {
		for _, req := range p.Load.Requests {
			if req.Initiator == "webdriver" {
				noiseDomains[req.Domain] = true
			} else if !req.Blocked {
				realDomains[req.Domain] = true
			}
		}
	}
	isNoise := func(domain string) bool { return noiseDomains[domain] && !realDomains[domain] }

	domainAddr := map[string]netip.Addr{}
	domainRDNS := map[string]string{}
	domainChain := map[string][]string{}
	for _, p := range ds.Pages {
		for _, rec := range p.DNS {
			if rec.Err != "" || rec.Addr == "" || isNoise(rec.Domain) {
				continue
			}
			addr, err := netip.ParseAddr(rec.Addr)
			if err != nil {
				continue
			}
			domainAddr[rec.Domain] = addr
			if rec.RDNS != "" {
				domainRDNS[rec.Domain] = rec.RDNS
			}
			if len(rec.CNAMEChain) > 1 {
				domainChain[rec.Domain] = rec.CNAMEChain
			}
		}
	}

	// Source-trace substitution: in countries whose volunteer probes
	// failed (middlebox filtering) or were opted out, re-launch from the
	// nearest Atlas probe — possibly in a neighbouring country, as with
	// Qatar (probe in Saudi Arabia) and Jordan (probe in Israel).
	sourceCity := volCity
	cr.TraceOrigin = "volunteer"
	traceFor := func(addr netip.Addr) *tracert.Normalized {
		if tr, ok := volTraces[addr.String()]; ok {
			trCopy := tr
			return &trCopy
		}
		return nil
	}
	if !anyReached && len(domainAddr) > 0 {
		if env.Mesh == nil {
			return nil, fmt.Errorf("volunteer traces unusable and no probe mesh available")
		}
		vol, ok := env.Net.VantageByID("vol-" + strings.ToLower(ds.Country))
		var preferASN uint32
		if ok {
			preferASN = vol.ASN
		}
		probe, ok := env.Mesh.NearestProbe(volCity.Coord, preferASN)
		if !ok {
			return nil, fmt.Errorf("no substitute probe near %s", volCity.ID())
		}
		sourceCity = probe.City
		cr.TraceOrigin = fmt.Sprintf("atlas:%s", probe.City.ID())
		probeTraces := map[string]tracert.Normalized{}
		for _, addr := range sortedAddrs(domainAddr) {
			resTr, err := env.Mesh.Traceroute(probe, addr)
			if err != nil {
				return nil, err
			}
			cr.Traces.SourceLaunched++
			norm := tracert.FromResult(resTr)
			if norm.Reached {
				cr.Traces.SourceReached++
			}
			probeTraces[addr.String()] = norm
		}
		traceFor = func(addr netip.Addr) *tracert.Normalized {
			if tr, ok := probeTraces[addr.String()]; ok {
				trCopy := tr
				return &trCopy
			}
			return nil
		}
	}

	// Classify every unique domain once.
	for _, domain := range sortedKeys(domainAddr) {
		addr := domainAddr[domain]
		verdict := fw.Classify(ds.Country, sourceCity, geoloc.Candidate{
			Domain: domain,
			Addr:   addr,
			RDNS:   domainRDNS[domain],
			Trace:  traceFor(addr),
		})
		if isDestStage(verdict.Stage) {
			cr.Traces.DestLaunched++
		} else if verdict.Class == geoloc.NonLocal {
			cr.Traces.DestLaunched++ // retained claims also consumed a destination trace
		}
		obs := DomainObs{
			Domain:      domain,
			Addr:        addr.String(),
			Class:       verdict.Class,
			Stage:       verdict.Stage,
			DestCountry: verdict.DestCountry,
			DestCity:    verdict.DestCity,
			CNAMEChain:  domainChain[domain],
		}
		annotate(env, match, ds.Country, &obs)
		cr.Verdicts[domain] = obs
	}

	var verdictList []geoloc.Verdict
	//gammavet:ignore maporder Tally only counts (Class, Stage) occurrences, so the result is independent of element order
	for _, obs := range cr.Verdicts {
		verdictList = append(verdictList, geoloc.Verdict{Class: obs.Class, Stage: obs.Stage})
	}
	cr.Funnel = geoloc.Tally(verdictList)

	// Materialize per-site results.
	for _, p := range ds.Pages {
		cr.Targets++
		sr := SiteResult{
			Country:  ds.Country,
			Site:     p.Target.Domain,
			Kind:     p.Target.Kind,
			LoadOK:   p.Load.OK,
			OptedOut: p.OptedOut,
		}
		if p.OptedOut {
			cr.OptOuts++
		}
		if p.Load.OK {
			cr.LoadedOK++
			seen := map[string]bool{}
			for _, rec := range p.DNS {
				if isNoise(rec.Domain) || seen[rec.Domain] {
					continue
				}
				seen[rec.Domain] = true
				if obs, ok := cr.Verdicts[rec.Domain]; ok {
					// First-party is site-relative; recompute per site. A
					// cloaked tracker only *looks* first-party — ownership
					// follows the CNAME target, so it never counts as one.
					obs.FirstParty = !obs.Cloaked && env.Orgs != nil &&
						env.Orgs.IsFirstParty(p.Target.Domain, rec.Domain)
					sr.Domains = append(sr.Domains, obs)
				}
			}
		}
		cr.Sites = append(cr.Sites, sr)
	}
	return cr, nil
}

func isDestStage(s geoloc.Stage) bool {
	switch s {
	case geoloc.StageDestUnreach, geoloc.StageDestSOL, geoloc.StageDestTooFar, geoloc.StageRDNSConflict:
		return true
	default:
		return false
	}
}

// annotate attaches tracker identification, organization ownership and
// hosting-AS metadata to a non-local domain observation.
func annotate(env Env, match *matchers, cc string, obs *DomainObs) {
	if env.Net != nil {
		if addr, err := netip.ParseAddr(obs.Addr); err == nil {
			if host, ok := env.Net.HostByAddr(addr); ok {
				obs.HostASN = host.ASN
				if as, ok := env.Net.ASByNumber(host.ASN); ok {
					obs.HostASOrg = as.Org
				}
			}
		}
	}
	if env.Orgs != nil {
		if org, ok := env.Orgs.OrgOf(obs.Domain); ok {
			obs.Org = org.Name
			obs.OrgCountry = org.Country
		}
	}
	if obs.Class != geoloc.NonLocal {
		return
	}
	// Filter lists first (§4.2)...
	page := "unrelated-page.example"
	if match.global != nil {
		if blocked, rule := match.global.MatchName(obs.Domain, page); blocked {
			obs.IsTracker = true
			obs.TrackerSource = rule.List
			return
		}
	}
	if regional, ok := match.regional[cc]; ok {
		if blocked, rule := regional.MatchName(obs.Domain, page); blocked {
			obs.IsTracker = true
			obs.TrackerSource = rule.List
			return
		}
	}
	// ...then manual inspection via the organization database. Consumer
	// site domains (google.com itself) are never labelled trackers — the
	// inspection targets tracking endpoints, not destinations users visit.
	if env.Orgs != nil {
		if org, ok := env.Orgs.OrgOf(obs.Domain); ok && trackerCategories[org.Category] &&
			!env.Orgs.IsConsumerDomain(obs.Domain) {
			obs.IsTracker = true
			obs.TrackerSource = "manual"
			return
		}
	}
	// ...finally, CNAME-chain inspection: a first-party-looking name that
	// aliases onto tracker infrastructure is a cloaked tracker. Lists miss
	// it by construction; the chain Gamma recorded does not.
	for _, alias := range obs.CNAMEChain[min(1, len(obs.CNAMEChain)):] {
		if matchTrackerName(match, cc, alias) {
			obs.IsTracker = true
			obs.Cloaked = true
			obs.TrackerSource = "cname:" + alias
			return
		}
		if env.Orgs != nil {
			if org, ok := env.Orgs.OrgOf(alias); ok && trackerCategories[org.Category] &&
				!env.Orgs.IsConsumerDomain(alias) {
				obs.IsTracker = true
				obs.Cloaked = true
				obs.TrackerSource = "cname:" + alias
				return
			}
		}
	}
}

// matchTrackerName checks a bare hostname against the filter engines.
func matchTrackerName(match *matchers, cc, hostname string) bool {
	const page = "unrelated-page.example"
	if match.global != nil {
		if blocked, _ := match.global.MatchName(hostname, page); blocked {
			return true
		}
	}
	if regional, ok := match.regional[cc]; ok {
		if blocked, _ := regional.MatchName(hostname, page); blocked {
			return true
		}
	}
	return false
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedAddrs(m map[string]netip.Addr) []netip.Addr {
	seen := map[netip.Addr]bool{}
	var out []netip.Addr
	for _, a := range m {
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}
