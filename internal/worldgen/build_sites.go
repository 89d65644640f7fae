package worldgen

import (
	"fmt"
	"math/rand/v2"
	"net/netip"
	"slices"
	"sort"
	"strings"

	"github.com/gamma-suite/gamma/internal/dnssim"
	"github.com/gamma-suite/gamma/internal/geo"
	"github.com/gamma-suite/gamma/internal/rng"
	"github.com/gamma-suite/gamma/internal/tld"
	"github.com/gamma-suite/gamma/internal/websim"
)

// extraGlobalSites appear in a minority of countries' top lists; their
// owners account for the non-Google first-party non-local cases (§6.7).
var extraGlobalSites = []struct {
	Domain string
	Org    string
}{
	{"yahoo.com", "Yahoo"},
	{"booking.com", "Booking"},
	{"bbc.co.uk", "BBC"},
	{"microsoft.com", "Microsoft"},
	{"amazon.com", "Amazon"},
}

// quotaInflation compensates site-level foreign quotas for downstream
// constraint losses: sites with few foreign trackers are likelier to lose
// them all to the conservative cascade, so low-count countries need more
// headroom.
func quotaInflation(foreignMean float64) float64 {
	return 1 + 0.30/(1+foreignMean/3)
}

// siteLists holds each country's generated site lists for the rankings
// step.
type siteLists struct {
	top50 map[string][]string // country -> T_reg ranking (50 proper sites)
	extra map[string][]string // country -> rank 51+ pool (ranking fodder)
	gov   map[string][]string // country -> all gov domains
}

// appendTrackerHostnames appends up to n distinct tracker hostnames whose
// effective destination for the country is foreign (foreign) or local
// (!foreign), sampled by org prominence, to dst. Google's weight means
// most selections include several Google endpoints, matching the outlier
// anatomy in §6.2.
func (b *builder) appendTrackerHostnames(dst []string, cc string, n int, foreign, gov bool, r *rand.Rand) []string {
	cands := b.trackerCandidates(cc, foreign, gov)
	if len(cands.rts) == 0 || n <= 0 {
		return dst
	}
	// The draw loop halves the weights of orgs that run out of unused
	// hostnames, so it works on a copy of the memoized weights.
	weights := append([]float64(nil), cands.weights...)
	dst = slices.Grow(dst, n)
	start := len(dst)
	for len(dst)-start < n {
		idx := rng.WeightedIndex(r, weights)
		if idx < 0 {
			break
		}
		pool := b.matchingHostnames(cands.rts[idx], cc, foreign)
		h := pool[r.IntN(len(pool))]
		// n is at most a few dozen, so scanning this call's picks is
		// cheaper than keeping a set.
		picked := dst[start:]
		if contains(picked, h) {
			// Allow a bounded number of re-draws before giving up on this
			// round; large orgs have plenty of hostnames.
			if retry := pool[r.IntN(len(pool))]; !contains(picked, retry) {
				h = retry
			} else {
				weights[idx] *= 0.5
				allZero := true
				for _, w := range weights {
					if w > 0.01 {
						allZero = false
						break
					}
				}
				if allZero {
					break
				}
				continue
			}
		}
		dst = append(dst, h)
	}
	return dst
}

// trackerCands are the orgs one appendTrackerHostnames draw chooses among,
// in catalog order, with their prominence weights.
type trackerCands struct {
	rts     []*orgRuntime
	weights []float64
}

// candKey identifies one trackerCandidates result.
type candKey struct {
	cc           string
	foreign, gov bool
}

// trackerCandidates returns the orgs that serve cc and have at least one
// hostname of the requested locality (cache domains are always local; ad
// domains follow the serving map). Like matchingHostnames, results are
// memoized over inputs frozen before site building starts; callers must
// treat them as read-only.
func (b *builder) trackerCandidates(cc string, foreign, gov bool) trackerCands {
	key := candKey{cc: cc, foreign: foreign, gov: gov}
	if c, ok := b.candMemo[key]; ok {
		return c
	}
	var c trackerCands
	for _, rt := range b.orgRTs {
		if _, ok := rt.serve[cc]; !ok {
			continue
		}
		if gov && rt.spec.ServeOnlyFromUS && cc != "AE" {
			// Government sites direct flows to the US only from the UAE
			// in the observed data (§6.3).
			continue
		}
		if len(b.matchingHostnames(rt, cc, foreign)) == 0 {
			continue
		}
		c.rts = append(c.rts, rt)
		c.weights = append(c.weights, rt.spec.Weight)
	}
	if b.candMemo == nil {
		b.candMemo = make(map[candKey]trackerCands)
	}
	b.candMemo[key] = c
	return c
}

// foreignTrackerPool picks one foreign-serving tracker hostname for cc.
func (b *builder) foreignTrackerPool(cc string, r *rand.Rand) string {
	for tries := 0; tries < 16; tries++ {
		rt := b.orgRTs[r.IntN(len(b.orgRTs))]
		if len(rt.spec.OnlyCountries) > 0 && !contains(rt.spec.OnlyCountries, cc) {
			continue
		}
		if pool := b.matchingHostnames(rt, cc, true); len(pool) > 0 {
			return pool[r.IntN(len(pool))]
		}
	}
	return ""
}

// matchingHostnames returns an org's hostnames whose effective destination
// for cc is foreign (true) or local (false). Results are memoized; callers
// must treat the returned slice as read-only.
func (b *builder) matchingHostnames(rt *orgRuntime, cc string, foreign bool) []string {
	key := matchKey{org: rt.spec.Name, cc: cc, foreign: foreign}
	if out, ok := b.matchMemo[key]; ok {
		return out
	}
	var out []string
	for _, h := range rt.hostnames {
		dest, ok := rt.effectiveDest(cc, h)
		if !ok {
			continue
		}
		if foreign == (dest != cc) {
			out = append(out, h)
		}
	}
	if b.matchMemo == nil {
		b.matchMemo = make(map[matchKey][]string)
	}
	b.matchMemo[key] = out
	return out
}

// orgOfHostname resolves a tracker hostname to its org name.
func (b *builder) orgOfHostname(h string) string { return b.world.TrackerHostnames[h] }

// Most resources appendFirstPartyResources and appendInfraResources add.
const (
	maxFirstPartyResources = 5
	maxInfraResources      = 3
)

// appendFirstPartyResources appends the site's own static assets to dst.
func appendFirstPartyResources(dst []websim.Resource, domain string, r *rand.Rand) []websim.Resource {
	dst = append(dst,
		websim.Resource{URL: "https://static." + domain + "/styles.css", Type: "css"},
		websim.Resource{URL: "https://static." + domain + "/logo.png", Type: "img"},
	)
	if r.IntN(2) == 0 {
		dst = append(dst, websim.Resource{URL: "https://static." + domain + "/hero.jpg", Type: "img"})
	}
	if r.IntN(2) == 0 {
		dst = append(dst, websim.Resource{URL: "https://cdn." + domain + "/bundle.js", Type: "script"})
	}
	if r.IntN(3) == 0 {
		dst = append(dst, websim.Resource{URL: "https://api." + domain + "/session", Type: "xhr"})
	}
	return dst
}

// appendInfraResources appends 2-3 shared-infrastructure dependencies to
// dst.
func appendInfraResources(dst []websim.Resource, r *rand.Rand) []websim.Resource {
	n := 2 + r.IntN(2)
	perm := r.Perm(len(infraServices))
	for _, i := range perm[:n] {
		svc := infraServices[i]
		typ := "css"
		if strings.HasPrefix(svc.Hostname, "img") || strings.HasPrefix(svc.Hostname, "media") {
			typ = "img"
		} else if strings.HasPrefix(svc.Hostname, "cdn") || strings.HasPrefix(svc.Hostname, "tiles") {
			typ = "script"
		}
		dst = append(dst, websim.Resource{URL: "https://" + svc.Hostname + "/lib", Type: typ})
	}
	return dst
}

// assembleSiteResources builds a full homepage resource set in a slice
// allocated once: room for every first-party and infra asset, one
// resource per tracker hostname (Google's collapse into one tag), and the
// one cloaked and one exclusive-network tracker the callers may add.
func (b *builder) assembleSiteResources(cc, domain string, nForeign, nLocal int, gov bool, r *rand.Rand) []websim.Resource {
	res := make([]websim.Resource, 0, maxFirstPartyResources+maxInfraResources+nForeign+nLocal+2)
	res = appendFirstPartyResources(res, domain, r)
	res = appendInfraResources(res, r)
	hostnames := make([]string, 0, nForeign+nLocal)
	hostnames = b.appendTrackerHostnames(hostnames, cc, nForeign, true, gov, r)
	hostnames = b.appendTrackerHostnames(hostnames, cc, nLocal, false, gov, r)
	return appendTrackerResources(res, hostnames, b.orgOfHostname, cc+"/"+domain, r)
}

// sampleCount draws a clamped normal count.
func sampleCount(r *rand.Rand, mean, spread float64, min, max int) int {
	if mean <= 0 {
		return 0
	}
	n := round(mean + r.NormFloat64()*spread)
	if n < min {
		n = min
	}
	if n > max {
		n = max
	}
	return n
}

// renderTime draws a page render duration in ms; ~1% of pages wedge past
// the 180 s hard timeout.
func renderTime(r *rand.Rand) float64 {
	if rng.Bernoulli(r, 0.01) {
		return rng.Float64InRange(r, 200000, 400000)
	}
	base := rng.Float64InRange(r, 1200, 4000)
	tail := rng.Float64InRange(r, 0, 1)
	return base + tail*tail*14000
}

// registerSiteDNS hosts a site and makes its domain (and static.* etc.)
// resolvable. Foreign-hosted sites resolve to European hosting pools.
func (b *builder) registerSiteDNS(cc, domain string, r *rand.Rand, foreignHostProb float64) error {
	pool := b.hostingHosts[cc]
	if rng.Bernoulli(r, foreignHostProb) {
		if rng.Bernoulli(r, 0.5) {
			pool = b.hostingHosts["FR"]
		} else {
			pool = b.hostingHosts["DE"]
		}
	}
	if len(pool) == 0 {
		return fmt.Errorf("worldgen: no hosting pool for %s", cc)
	}
	return b.dns.Register(dnssim.Service{
		Domain:   domain,
		Wildcard: true,
		PoPs:     []netip.Addr{pool[r.IntN(len(pool))]},
	})
}

func (b *builder) buildSites() error {
	lists := &siteLists{
		top50: make(map[string][]string),
		extra: make(map[string][]string),
		gov:   make(map[string][]string),
	}
	if err := b.buildGlobalSites(); err != nil {
		return err
	}
	for i := range b.specs {
		if err := b.buildCountrySites(&b.specs[i], lists); err != nil {
			return err
		}
	}
	b.lists = lists
	return nil
}

// globalSiteDomains collects every registered global-site domain.
func (b *builder) buildGlobalSites() error {
	register := func(domain, org string, resources []websim.Resource, variants map[string][]websim.Resource, r *rand.Rand) error {
		site := websim.Site{
			Domain:    domain,
			Kind:      websim.Global,
			Category:  "global",
			OwnerOrg:  org,
			Resources: resources,
			Variants:  variants,
			RenderMs:  renderTime(r),
		}
		if err := b.web.AddSite(site); err != nil {
			return err
		}
		// Global sites are hosted on their owner's infrastructure and
		// steered like its trackers: the same GeoDNS map.
		rt := b.byOrg[org]
		byCountry := make(map[string]netip.Addr, len(rt.serve))
		for cc := range rt.serve {
			byCountry[cc] = rt.addrFor(cc, domain)
		}
		return b.dns.Register(dnssim.Service{
			Domain:    domain,
			Wildcard:  true,
			PoPs:      []netip.Addr{rt.defAddr},
			ByCountry: byCountry,
		})
	}

	// ownTrackers picks n of the owner org's hostnames. Consumer-facing
	// sites of the majors predominantly embed their cache/static domains
	// (served in-country), which keeps first-party NON-LOCAL trackers rare
	// (§6.7); adOnly selects advertising domains only (the Google ccTLD
	// sites and the Azerbaijan youtube outlier).
	ownTrackers := func(org string, n int, adOnly bool, tag string, r *rand.Rand) []websim.Resource {
		rt := b.byOrg[org]
		var cache, ads []string
		for _, h := range rt.hostnames {
			if rt.localBase[rt.hostBase[h]] {
				cache = append(cache, h)
			} else {
				ads = append(ads, h)
			}
		}
		pool := ads
		if !adOnly {
			// Consumer pages pull the org's cache-served assets only; orgs
			// without cache infrastructure embed nothing by default.
			pool = cache
		}
		if len(pool) == 0 {
			return nil
		}
		var hostnames []string
		used := map[string]bool{}
		for tries := 0; len(hostnames) < n && tries < 8*n; tries++ {
			h := pool[r.IntN(len(pool))]
			if !used[h] {
				used[h] = true
				hostnames = append(hostnames, h)
			}
		}
		return appendTrackerResources(nil, hostnames, b.orgOfHostname, tag, r)
	}

	// Consumer sites of the majors embed cache-served assets by default;
	// a seeded minority of countries receives an ad-instrumented variant,
	// which is what keeps first-party NON-LOCAL trackers rare (§6.7: only
	// 23 of 575 sites; the paper's §8 yahoo.com example shows exactly this
	// per-country variation).
	allGlobals := append([]struct {
		Domain string
		Org    string
	}{}, extraGlobalSites...)
	for _, g := range globalSiteOwners {
		allGlobals = append(allGlobals, struct {
			Domain string
			Org    string
		}{g.Domain, g.Org})
	}
	for _, g := range allGlobals {
		r := rng.New(b.seed, "global-site", g.Domain)
		res := appendInfraResources(appendFirstPartyResources(nil, g.Domain, r), r)
		res = append(res, ownTrackers(g.Org, 3+r.IntN(4), false, g.Domain+"/base", r)...)
		variants := map[string][]websim.Resource{}
		for _, cc := range geo.SourceCountryCodes() {
			if rng.Bernoulli(r, 0.12) {
				vres := appendInfraResources(appendFirstPartyResources(nil, g.Domain, r), r)
				vres = append(vres, ownTrackers(g.Org, 1+r.IntN(3), true, g.Domain+"/"+cc, r)...)
				variants[cc] = vres
			}
		}
		if g.Domain == "youtube.com" {
			// The Azerbaijan outlier: 32 Google tracking domains (§6.2).
			vres := appendFirstPartyResources(nil, g.Domain, r)
			vres = append(vres, ownTrackers("Google", 32, true, g.Domain+"/AZ-outlier", r)...)
			variants["AZ"] = vres
		}
		if len(variants) == 0 {
			variants = nil
		}
		if err := register(g.Domain, g.Org, res, variants, r); err != nil {
			return err
		}
	}
	// Register ccTLD sites in sorted order: site registration order decides
	// first-wins ties in the web's shared cookie/children indices, so a map
	// range here would vary the built web from run to run.
	cctldCCs := make([]string, 0, len(googleCCTLDSite))
	for cc := range googleCCTLDSite {
		cctldCCs = append(cctldCCs, cc)
	}
	sort.Strings(cctldCCs)
	for _, cc := range cctldCCs {
		domain := googleCCTLDSite[cc]
		r := rng.New(b.seed, "global-site", domain)
		res := appendFirstPartyResources(nil, domain, r)
		res = append(res, ownTrackers("Google", 3+r.IntN(3), true, domain+"/cctld", r)...)
		if err := register(domain, "Google", res, nil, r); err != nil {
			return err
		}
	}
	return nil
}

// globalPresence decides which globally-ranked sites appear in a country's
// top-50 list.
func (b *builder) globalPresence(cc string) []string {
	r := rng.New(b.seed, "global-presence", cc)
	out := []string{"google.com", "wikipedia.org"}
	for _, g := range globalSiteOwners {
		if g.Everywhere {
			continue
		}
		if rng.Bernoulli(r, 0.78) {
			out = append(out, g.Domain)
		}
	}
	for _, g := range extraGlobalSites {
		if rng.Bernoulli(r, 0.30) {
			out = append(out, g.Domain)
		}
	}
	if d, ok := googleCCTLDSite[cc]; ok {
		out = append(out, d)
	}
	return out
}

// siteHasForeignTrackers checks (by ground truth) whether a registered
// site's resource set for a country includes a foreign-served tracker.
func (b *builder) siteHasForeignTrackers(domain, cc string) bool {
	site, ok := b.web.Site(domain)
	if !ok {
		return false
	}
	var walk func(rs []websim.Resource) bool
	walk = func(rs []websim.Resource) bool {
		for _, r := range rs {
			h := r.Domain()
			if org, isTracker := b.world.TrackerHostnames[h]; isTracker {
				if si, ok := b.byOrg[org].serve[cc]; ok && si.Dest != cc {
					return true
				}
			}
			if walk(r.Children) {
				return true
			}
		}
		return false
	}
	return walk(site.ResourcesFor(cc))
}

func (b *builder) buildCountrySites(spec *CountrySpec, lists *siteLists) error {
	cc := spec.Code
	r := rng.New(b.seed, "country-sites", cc)

	// ---- Regional list (T_reg candidates) ----
	globals := b.globalPresence(cc)
	// Quotas are inflated ~12% because the conservative constraint cascade
	// discards a share of genuine foreign claims downstream.
	foreignQuota := round(spec.RegNonlocalPct / 100 * 50 * quotaInflation(spec.ForeignMean))
	for _, d := range globals {
		if b.siteHasForeignTrackers(d, cc) {
			foreignQuota--
		}
	}

	var regional []string
	regional = append(regional, globals...)
	specials := b.specialSites(cc)
	for _, sp := range specials {
		if err := b.addGeneratedSite(spec, sp, "news", websim.Regional, true, r); err != nil {
			return err
		}
	}
	regional = append(regional, specials...)
	foreignQuota -= len(specials) // special outlier sites are all foreign

	seen := map[string]bool{}
	for len(regional) < 50 {
		domain, category := regionalSiteName(cc, len(regional), r)
		if seen[domain] {
			continue
		}
		if _, exists := b.web.Site(domain); exists {
			continue
		}
		seen[domain] = true
		isForeign := foreignQuota > 0
		if isForeign {
			foreignQuota--
		}
		if err := b.addGeneratedSite(spec, domain, category, websim.Regional, isForeign, r); err != nil {
			return err
		}
		regional = append(regional, domain)
	}
	// Shuffle into a "ranking" order deterministically.
	r.Shuffle(len(regional), func(i, j int) { regional[i], regional[j] = regional[j], regional[i] })
	lists.top50[cc] = regional

	// Extra lower-ranked sites: ranking fodder for the overlap experiment.
	var extra []string
	for len(extra) < 20 {
		domain, category := regionalSiteName(cc, 100+len(extra), r)
		if _, exists := b.web.Site(domain); exists {
			continue
		}
		if err := b.addGeneratedSite(spec, domain, category, websim.Regional, rng.Bernoulli(r, spec.RegNonlocalPct/100), r); err != nil {
			return err
		}
		extra = append(extra, domain)
	}
	lists.extra[cc] = extra

	// ---- Government sites ----
	suffixes := tld.GovSuffixes[cc]
	govForeign := round(spec.GovNonlocalPct / 100 * float64(spec.GovSiteCount) * quotaInflation(spec.ForeignMean))
	var gov []string
	for i := 0; i < spec.GovSiteCount && i < len(govAgencies); i++ {
		suffix := suffixes[i%len(suffixes)]
		domain := govAgencies[i] + "." + suffix
		isForeign := i < govForeign
		if err := b.addGovSite(spec, domain, isForeign, r); err != nil {
			return err
		}
		gov = append(gov, domain)
	}
	r.Shuffle(len(gov), func(i, j int) { gov[i], gov[j] = gov[j], gov[i] })
	lists.gov[cc] = gov
	b.world.GovIndex[cc] = append([]string(nil), gov...)

	// Adult sites polluting rankings (filtered by target selection, §3.2).
	for i := 0; i < 2; i++ {
		domain := adultSiteName(cc, i)
		if err := b.addGeneratedSite(spec, domain, "adult", websim.Regional, false, r); err != nil {
			return err
		}
		lists.extra[cc] = append(lists.extra[cc], domain)
	}
	// Nationally banned sites (§3.2 removes these too): a few countries
	// block specific popular sites; the ranking still lists them, the
	// selection must not visit them.
	if bannedIn[cc] {
		for i := 0; i < 2; i++ {
			domain := fmt.Sprintf("blocked-portal-%s-%d.com", strings.ToLower(cc), i)
			if err := b.addGeneratedSite(spec, domain, "portal", websim.Regional, false, r); err != nil {
				return err
			}
			b.world.BannedSites[cc] = append(b.world.BannedSites[cc], domain)
			// Banned sites sit IN the ranking, displacing nothing.
			lists.extra[cc] = append(lists.extra[cc], domain)
		}
	}
	return nil
}

// bannedIn marks countries that block popular sites (RU, CN-adjacent
// regimes in the sample: RU, EG, AE, PK).
var bannedIn = map[string]bool{"RU": true, "EG": true, "AE": true, "PK": true}

// specialSites returns the named outlier sites from §6.2.
func (b *builder) specialSites(cc string) []string {
	switch cc {
	case "QA":
		return []string{"manoramaonline.com"}
	case "UG":
		return []string{"koora.com"}
	default:
		return nil
	}
}

func (b *builder) addGeneratedSite(spec *CountrySpec, domain, category string, kind websim.Kind, foreign bool, r *rand.Rand) error {
	cc := spec.Code
	nF, nL := 0, sampleCount(r, spec.LocalMean, spec.LocalMean/2, 0, 14)
	if foreign {
		nF = sampleCount(r, spec.ForeignMean, spec.ForeignSpread, 1, 45)
	}
	if category == "adult" {
		nF, nL = 0, 1 // adult decoys are never analyzed; keep them light
	}
	switch domain {
	case "manoramaonline.com":
		// Qatar's diverse-tracker outlier: majors plus many third parties.
		nF, nL = 16, 0
	case "koora.com":
		nF, nL = 18, 0
	}
	res := b.assembleSiteResources(cc, domain, nF, nL, false, r)
	// CNAME cloaking: a slice of sites hide a foreign tracker behind a
	// first-party-looking subdomain. Filter lists cannot match it by
	// domain; only the recorded DNS chain betrays it.
	if foreign && rng.Bernoulli(r, 0.10) {
		if pool := b.foreignTrackerPool(cc, r); pool != "" {
			cloak := "metrics." + domain
			if err := b.dns.Register(dnssim.Service{Domain: cloak, CNAME: pool}); err == nil {
				res = append(res, websim.Resource{URL: "https://" + cloak + "/ca.js", Type: "script"})
				b.world.CloakedDomains[cloak] = pool
			}
		}
	}
	// Jordan's exclusive ad networks (Jubnaadserve, Onetag, Optad360)
	// appear on a sample of Jordanian sites and nowhere else (§6.5).
	if cc == "JO" && foreign && r.IntN(4) == 0 {
		var exclusive []*orgRuntime
		for _, rt := range b.orgRTs {
			if len(rt.spec.OnlyCountries) == 1 && rt.spec.OnlyCountries[0] == "JO" {
				exclusive = append(exclusive, rt)
			}
		}
		if len(exclusive) > 0 {
			rt := exclusive[r.IntN(len(exclusive))]
			if pool := b.matchingHostnames(rt, cc, true); len(pool) > 0 {
				h := pool[r.IntN(len(pool))]
				res = append(res, websim.Resource{URL: "https://" + h + trackerPath("script"), Type: "script"})
			}
		}
	}
	foreignHostProb := 0.22
	if cont, _ := b.reg.ContinentOf(cc); cont == "Africa" {
		foreignHostProb = 0.45
	}
	if err := b.registerSiteDNS(cc, domain, r, foreignHostProb); err != nil {
		return err
	}
	site := websim.Site{
		Domain:    domain,
		Country:   cc,
		Kind:      kind,
		Category:  category,
		Resources: res,
		RenderMs:  renderTime(r),
	}
	// Ad-slot rotation: foreign-tracking sites fill 1-2 slots per visit
	// from a larger pool, so repeated visits surface different trackers.
	if foreign && category != "adult" {
		pool := b.appendTrackerHostnames(nil, cc, 4+r.IntN(4), true, false, r)
		if len(pool) > 0 {
			site.Rotating = make([]websim.Resource, 0, len(pool))
		}
		for _, h := range pool {
			site.Rotating = append(site.Rotating, websim.Resource{
				URL: "https://" + h + "/slot.js?rot=1", Type: "script",
			})
		}
		if len(site.Rotating) > 0 {
			site.RotateK = 1 + r.IntN(2)
		}
	}
	return b.web.AddSite(site)
}

func (b *builder) addGovSite(spec *CountrySpec, domain string, foreign bool, r *rand.Rand) error {
	cc := spec.Code
	nF, nL := 0, sampleCount(r, spec.LocalMean*0.8, spec.LocalMean/2, 0, 10)
	if foreign {
		nF = sampleCount(r, spec.ForeignMean*0.9, spec.ForeignSpread, 1, 40)
	}
	// Azerbaijan's gov outliers (dost.gov.az-style Google fan-out, §6.2).
	if cc == "AZ" && (strings.HasPrefix(domain, "education.") || strings.HasPrefix(domain, "health.")) && foreign {
		nF = 24 + r.IntN(8)
	}
	res := b.assembleSiteResources(cc, domain, nF, nL, true, r)
	// The UAE is the only source whose government sites direct flows to
	// the USA (§6.3): a subset embeds a US-only org's tracker.
	if cc == "AE" && foreign && r.IntN(3) == 0 {
		for _, rt := range b.orgRTs {
			if rt.spec.ServeOnlyFromUS {
				if pool := b.matchingHostnames(rt, cc, true); len(pool) > 0 {
					h := pool[r.IntN(len(pool))]
					res = append(res, websim.Resource{URL: "https://" + h + trackerPath("img"), Type: "img"})
				}
				break
			}
		}
	}
	if err := b.registerSiteDNS(cc, domain, r, 0.05); err != nil {
		return err
	}
	return b.web.AddSite(websim.Site{
		Domain:    domain,
		Country:   cc,
		Kind:      websim.Government,
		Category:  "government",
		Resources: res,
		RenderMs:  renderTime(r),
	})
}
