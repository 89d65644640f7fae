// Package worldgen builds the calibrated synthetic world the study runs
// against: 23 source countries with volunteers, 60+ destination countries
// hosting tracker infrastructure, ~70 tracker organizations with GeoDNS
// steering, a web of ~2000 regional and government sites, filter lists,
// ranking sources, a Tranco-style global list, an Atlas-style probe mesh,
// and an IPmap-style geolocation database with realistic errors.
//
// Calibration targets come from the paper's published aggregates (Table 1,
// Figures 2-9, §5-§7); the measurement pipeline then *measures* this world
// through the same lossy instruments the paper used.
package worldgen

import (
	"fmt"
	"math"
	"math/rand/v2"
	"net/netip"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/gamma-suite/gamma/internal/atlas"
	"github.com/gamma-suite/gamma/internal/browser"
	"github.com/gamma-suite/gamma/internal/dnssim"
	"github.com/gamma-suite/gamma/internal/filterlist"
	"github.com/gamma-suite/gamma/internal/geo"
	"github.com/gamma-suite/gamma/internal/geodb"
	"github.com/gamma-suite/gamma/internal/netsim"
	"github.com/gamma-suite/gamma/internal/rng"
	"github.com/gamma-suite/gamma/internal/tld"
	"github.com/gamma-suite/gamma/internal/tlsprobe"
	"github.com/gamma-suite/gamma/internal/trackerdb"
	"github.com/gamma-suite/gamma/internal/websim"
)

// Volunteer is one participant running Gamma in a source country.
type Volunteer struct {
	Country          string     `json:"country"`
	City             geo.City   `json:"city"`
	VantageID        string     `json:"vantage_id"`
	ASN              uint32     `json:"asn"`
	Addr             netip.Addr `json:"addr"`
	TracerouteOptOut bool       `json:"traceroute_opt_out"`
	LoadFailureProb  float64    `json:"load_failure_prob"`
	OptOutSites      []string   `json:"opt_out_sites,omitempty"`
}

// Rankings holds the three top-list sources used for target selection and
// the §3.2 overlap experiment.
type Rankings struct {
	Similarweb map[string][]string
	Semrush    map[string][]string
	Ahrefs     map[string][]string
	// Complete lists the countries for which all three sources publish
	// full top-50 lists (the paper's 58-country overlap sample).
	Complete []string
}

// World is the fully-built synthetic study environment.
type World struct {
	Seed     uint64
	Registry *geo.Registry
	Net      *netsim.Network
	DNS      *dnssim.Server
	Web      *websim.Web
	Mesh     *atlas.Mesh
	IPMap    *geodb.DB
	RefLat   *geodb.RefTable
	Orgs     *trackerdb.DB
	// tls and altDBs are the parts no default study reads; TLS and AltDBs
	// build them on first use.
	tls    lazy[*tlsprobe.Registry]
	altDBs lazy[map[string]*geodb.DB]

	// Pages is the study-wide parsed-homepage memo every volunteer's
	// browser shares (nil when built with Options.DisableCaches).
	Pages *browser.ParseCache

	EasyList      *filterlist.List
	EasyPrivacy   *filterlist.List
	RegionalLists map[string]*filterlist.List

	// ManualTrackers are registrable tracker domains absent from every
	// list; the pipeline identifies them via WhoTracksMe-style inspection
	// (the paper's 64 manually-labelled domains).
	ManualTrackers map[string]bool

	Volunteers map[string]*Volunteer
	// SecondaryVolunteers exist only when built with
	// Options.SecondaryVantages: a second vantage per country on another
	// ISP, for intra-country variance studies.
	SecondaryVolunteers map[string]*Volunteer
	Specs               map[string]*CountrySpec

	Rankings *Rankings
	Tranco   []string
	// GovIndex is the full government web per country — the search-scrape
	// fallback source when Tranco carries fewer than 50 gov sites.
	GovIndex map[string][]string

	// TrackerHostnames maps every tracker FQDN to its owning org (ground
	// truth, used by tests and the world report).
	TrackerHostnames map[string]string
	// CloakedDomains maps first-party-looking cloak names to the tracker
	// hostnames they CNAME onto (ground truth for the cloaking analysis).
	CloakedDomains map[string]string
	// BannedSites lists, per source country, domains that are nationally
	// blocked; §3.2 removes them from target lists alongside adult sites.
	BannedSites map[string][]string
}

// SourceCountries returns the 23 measurement countries in stable order.
func (w *World) SourceCountries() []string { return geo.SourceCountryCodes() }

// TLS returns every host's TLS deployment, probed by the optional C3
// security scans (§3: Nmap/testssl-style probes). The first call builds it;
// a study without those scans never does.
func (w *World) TLS() *tlsprobe.Registry { return w.tls.get() }

// AltDBs returns the commercial-style geolocation databases, whose
// coverage and error profiles differ from IPMap's (§4.1 cites studies
// showing they are not fully reliable); the database-comparison experiment
// reads them. The first call builds them.
func (w *World) AltDBs() map[string]*geodb.DB { return w.altDBs.get() }

// lazy is a world part built on first use, once, however many goroutines
// ask. build captures only what the part is derived from, never the
// builder, so a world kept for serving does not keep the build's memos.
type lazy[T any] struct {
	once  sync.Once
	build func() T
	v     T
}

func (l *lazy[T]) get() T {
	l.once.Do(func() {
		if l.build != nil {
			l.v = l.build()
			l.build = nil
		}
	})
	return l.v
}

// orgRuntime carries per-org build state.
type orgRuntime struct {
	spec      OrgSpec
	asn       uint32
	hostnames []string
	hostBase  map[string]string       // hostname -> base domain
	localBase map[string]bool         // bases served from in-country caches
	hosts     map[string][]netip.Addr // city ID -> host addrs
	defAddr   netip.Addr
	serve     map[string]serveInfo // source country -> serving decision
	// localAddrs hold per-source-country cache hosts for LocalDomains.
	localAddrs map[string][]netip.Addr
}

// effectiveDest reports where one hostname is served from for a source
// country: cache domains stay local, everything else follows the org's
// serving decision.
func (rt *orgRuntime) effectiveDest(cc, hostname string) (string, bool) {
	if rt.localBase[rt.hostBase[hostname]] {
		return cc, true
	}
	si, ok := rt.serve[cc]
	if !ok {
		return "", false
	}
	return si.Dest, true
}

type serveInfo struct {
	Dest string
	// Addrs are the responsive serving addresses in the destination city;
	// different base domains of the org resolve to different ones.
	Addrs []netip.Addr
}

// addrFor returns the serving address for one of the org's base domains in
// a source country: base domains spread across the destination city's
// edges, so a page touching several of the org's properties produces
// several distinct server IPs, as real CDNs do.
func (rt *orgRuntime) addrFor(cc, baseDomain string) netip.Addr {
	if rt.localBase[baseDomain] {
		if addrs := rt.localAddrs[cc]; len(addrs) > 0 {
			return addrs[rng.Hash(rt.spec.Name, cc, baseDomain)%uint64(len(addrs))]
		}
	}
	si, ok := rt.serve[cc]
	if !ok || len(si.Addrs) == 0 {
		return rt.defAddr
	}
	return si.Addrs[rng.Hash(rt.spec.Name, cc, baseDomain)%uint64(len(si.Addrs))]
}

// infraService is a non-tracker third-party dependency (fonts, JS
// mirrors, image CDNs) with nearest-PoP steering.
type infraService struct {
	Hostname string
	PoPs     []string // city IDs
}

var infraServices = []infraService{
	{Hostname: "fonts.webfontdepot.com", PoPs: []string{"Ashburn, US", "Frankfurt, DE", "Singapore, SG", "Sao Paulo, BR", "Johannesburg, ZA"}},
	{Hostname: "cdn.jslib-mirror.net", PoPs: []string{"Ashburn, US", "Amsterdam, NL", "Singapore, SG", "Sydney, AU"}},
	{Hostname: "img.imagecloud-cdn.net", PoPs: []string{"Ashburn, US", "Paris, FR", "Hong Kong, HK", "Johannesburg, ZA"}},
	{Hostname: "tiles.mapserve-basemaps.com", PoPs: []string{"Ashburn, US", "Frankfurt, DE", "Tokyo, JP"}},
	{Hostname: "media.vidstream-edge.com", PoPs: []string{"Ashburn, US", "Dublin, IE", "Singapore, SG", "Sao Paulo, BR"}},
	{Hostname: "assets.bundlehost-static.net", PoPs: []string{"Ashburn, US", "Frankfurt, DE", "Mumbai, IN"}},
	{Hostname: "push.notifyrelay-hub.com", PoPs: []string{"Ashburn, US", "Amsterdam, NL", "Tokyo, JP"}},
	{Hostname: "captcha.humancheck-api.com", PoPs: []string{"Ashburn, US", "London, GB", "Singapore, SG"}},
	{Hostname: "avatars.profilepic-cdn.net", PoPs: []string{"Ashburn, US", "Paris, FR", "Sydney, AU"}},
	{Hostname: "rss.feedproxy-mirror.org", PoPs: []string{"Ashburn, US", "Frankfurt, DE", "Sao Paulo, BR"}},
}

type builder struct {
	seed  uint64
	reg   *geo.Registry
	net   *netsim.Network
	dns   *dnssim.Server
	web   *websim.Web
	orgdb *trackerdb.DB

	specs   []CountrySpec
	orgRTs  []*orgRuntime
	byOrg   map[string]*orgRuntime
	nextASN uint32

	hostingHosts map[string][]netip.Addr // country -> shared web-hosting addrs
	lists        *siteLists
	opts         Options
	world        *World

	// matchMemo caches matchingHostnames per (org, country, locality).
	// Its inputs (hostnames, serving maps) are frozen by the time site
	// building starts, and the builder is single-threaded, so a plain map
	// suffices. Site generation queries the same few hundred combinations
	// tens of thousands of times.
	matchMemo map[matchKey][]string
	// candMemo caches trackerCandidates per (country, locality, gov), on
	// the same frozen inputs as matchMemo.
	candMemo map[candKey]trackerCands
}

// matchKey identifies one matchingHostnames result.
type matchKey struct {
	org     string
	cc      string
	foreign bool
}

// Options customizes world construction for scenario studies.
type Options struct {
	// Localize lists source countries whose tracking infrastructure has
	// moved in-country — the world *after* a data-localization law with
	// teeth (the §8 longitudinal-baseline use case). Every organization
	// serving a listed country is forced onto domestic edges.
	Localize []string
	// SecondaryVantages recruits a second volunteer per country on a
	// different ISP (and different city where available) — the study's
	// stated "single ISP in each country" limitation, lifted.
	SecondaryVantages bool
	// DisableCaches turns off every measurement-plane memo (netsim path
	// parameters, websim page markup, the browser parse cache, dnssim
	// resolution). The caches are behaviorally invisible — the
	// cached-vs-uncached equivalence test runs a full study both ways and
	// compares bytes — so this exists for that test and for profiling the
	// unmemoized baseline.
	DisableCaches bool
}

// Build constructs the world for a seed. Identical seeds produce identical
// worlds, byte for byte.
func Build(seed uint64) (*World, error) { return BuildWithOptions(seed, Options{}) }

// BuildWithOptions constructs a world with scenario overrides applied.
func BuildWithOptions(seed uint64, opts Options) (*World, error) {
	ncfg := netsim.DefaultConfig(seed)
	ncfg.DisablePathCache = opts.DisableCaches
	b := &builder{
		seed:         seed,
		reg:          geo.Default(),
		net:          netsim.New(ncfg),
		specs:        countrySpecs(),
		byOrg:        make(map[string]*orgRuntime),
		nextASN:      orgASNBase,
		hostingHosts: make(map[string][]netip.Addr),
		opts:         opts,
	}
	b.dns = dnssim.NewServer(b.net)
	b.web = websim.NewWeb()
	b.orgdb = trackerdb.NewDB(tld.Default())
	if opts.DisableCaches {
		b.web.SetPageCacheDisabled(true)
		b.dns.SetResolveMemoDisabled(true)
	}
	b.world = &World{
		Seed:                seed,
		Registry:            b.reg,
		Net:                 b.net,
		DNS:                 b.dns,
		Web:                 b.web,
		Orgs:                b.orgdb,
		RegionalLists:       make(map[string]*filterlist.List),
		ManualTrackers:      make(map[string]bool),
		Volunteers:          make(map[string]*Volunteer),
		SecondaryVolunteers: make(map[string]*Volunteer),
		Specs:               make(map[string]*CountrySpec),
		GovIndex:            make(map[string][]string),
		TrackerHostnames:    make(map[string]string),
		CloakedDomains:      make(map[string]string),
		BannedSites:         make(map[string][]string),
	}
	if !opts.DisableCaches {
		b.world.Pages = browser.NewParseCache()
	}
	steps := []func() error{
		b.buildCloudASes,
		b.buildVolunteers,
		b.buildMesh,
		b.buildOrgs,
		b.assignServing,
		b.registerOrgDNS,
		b.buildInfraServices,
		b.buildHostingPools,
		b.buildSites,
		b.buildRankings,
		b.buildFilterLists,
		b.buildGeoDBs,
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
	}
	b.deferOptionalParts()
	return b.world, nil
}

// deferOptionalParts sets up the parts only opt-in paths read — the TLS
// deployments and the commercial geolocation databases — to be built on
// first use. Both are drawn from keyed RNG streams over the finished
// network, so building them later yields the same bytes as building them
// here.
func (b *builder) deferOptionalParts() {
	seed, net, reg := b.seed, b.net, b.reg
	orgDomains := make(map[string][]string, len(b.orgRTs))
	for _, rt := range b.orgRTs {
		orgDomains[rt.spec.Name] = rt.spec.Domains
	}
	b.world.tls.build = func() *tlsprobe.Registry { return buildTLS(seed, net, orgDomains) }
	b.world.altDBs.build = func() map[string]*geodb.DB { return buildAltDBs(seed, net, reg) }
}

func (b *builder) buildCloudASes() error {
	for _, as := range []netsim.AS{
		{Number: awsASN, Name: "AMAZON-02", Org: "Amazon", Country: "US"},
		{Number: gcpASN, Name: "GOOGLE-CLOUD-PLATFORM", Org: "Google", Country: "US"},
	} {
		if err := b.net.AddAS(as); err != nil {
			return err
		}
	}
	return nil
}

func (b *builder) buildVolunteers() error {
	// Volunteer site opt-outs (≈0.99% of 2005 targets across the study).
	optOutCounts := map[string]int{
		"EG": 3, "JO": 2, "RU": 2, "LB": 3, "PK": 2, "SA": 2, "AZ": 2, "TW": 2,
	}
	asn := uint32(vantagePrivateASNBase)
	for i := range b.specs {
		spec := &b.specs[i]
		b.world.Specs[spec.Code] = spec
		city, ok := b.reg.City(spec.VolunteerCity)
		if !ok {
			return fmt.Errorf("worldgen: volunteer city %q missing", spec.VolunteerCity)
		}
		if err := b.net.AddAS(netsim.AS{
			Number: asn, Name: "ISP-" + spec.Code,
			Org: "Residential ISP " + spec.Code, Country: spec.Code,
		}); err != nil {
			return err
		}
		vid := "vol-" + strings.ToLower(spec.Code)
		v, err := b.net.AddVantage(netsim.Vantage{
			ID:                vid,
			City:              city,
			ASN:               asn,
			AccessDelayMs:     spec.AccessDelayMs,
			TracerouteBlocked: spec.TracerouteBlocked,
		})
		if err != nil {
			return err
		}
		spec.OptOutSites = optOutCounts[spec.Code]
		b.world.Volunteers[spec.Code] = &Volunteer{
			Country:          spec.Code,
			City:             city,
			VantageID:        vid,
			ASN:              asn,
			Addr:             v.Addr,
			TracerouteOptOut: spec.TracerouteOptOut,
			LoadFailureProb:  spec.LoadFailureProb,
		}
		asn++

		if b.opts.SecondaryVantages {
			country, _ := b.reg.Country(spec.Code)
			city2 := city
			if len(country.Cities) > 1 {
				city2 = country.Cities[1]
			}
			if err := b.net.AddAS(netsim.AS{
				Number: asn, Name: "ISP2-" + spec.Code,
				Org: "Second Residential ISP " + spec.Code, Country: spec.Code,
			}); err != nil {
				return err
			}
			vid2 := "vol2-" + strings.ToLower(spec.Code)
			// The second ISP has its own middlebox policy: a network that
			// filters probes on one provider often does not on another.
			v2, err := b.net.AddVantage(netsim.Vantage{
				ID:            vid2,
				City:          city2,
				ASN:           asn,
				AccessDelayMs: spec.AccessDelayMs * 1.4,
			})
			if err != nil {
				return err
			}
			b.world.SecondaryVolunteers[spec.Code] = &Volunteer{
				Country:         spec.Code,
				City:            city2,
				VantageID:       vid2,
				ASN:             asn,
				Addr:            v2.Addr,
				LoadFailureProb: spec.LoadFailureProb * 0.8,
			}
			asn++
		}
	}
	return nil
}

func (b *builder) buildMesh() error {
	mesh, err := atlas.BuildMesh(b.net, b.reg, atlas.DefaultMeshConfig(b.seed))
	if err != nil {
		return err
	}
	b.world.Mesh = mesh
	return nil
}

func (b *builder) buildOrgs() error {
	for _, spec := range orgCatalog() {
		rt := &orgRuntime{
			spec:       spec,
			hostBase:   make(map[string]string),
			localBase:  make(map[string]bool),
			hosts:      make(map[string][]netip.Addr),
			serve:      make(map[string]serveInfo),
			localAddrs: make(map[string][]netip.Addr),
		}
		for _, d := range spec.LocalDomains {
			rt.localBase[d] = true
		}
		switch spec.Hosting {
		case "aws":
			rt.asn = awsASN
		case "gcp":
			rt.asn = gcpASN
		default:
			if spec.ASN != 0 {
				rt.asn = spec.ASN
			} else {
				rt.asn = b.nextASN
				b.nextASN++
			}
			if _, exists := b.net.ASByNumber(rt.asn); !exists {
				if err := b.net.AddAS(netsim.AS{
					Number: rt.asn, Name: strings.ToUpper(spec.Name),
					Org: spec.Name, Country: spec.Country,
				}); err != nil {
					return err
				}
			}
		}
		// Hostnames: the bare base domain plus operator-style prefixes.
		r := rng.New(b.seed, "org-hostnames", spec.Name)
		for _, base := range spec.Domains {
			rt.hostnames = append(rt.hostnames, base)
			rt.hostBase[base] = base
			offset := r.IntN(len(hostnamePrefixes))
			for k := 1; k < spec.HostnamesPerDomain; k++ {
				prefix := hostnamePrefixes[(offset+k)%len(hostnamePrefixes)]
				h := prefix + "." + base
				rt.hostnames = append(rt.hostnames, h)
				rt.hostBase[h] = base
			}
		}
		for _, h := range rt.hostnames {
			b.world.TrackerHostnames[h] = spec.Name
		}
		b.orgRTs = append(b.orgRTs, rt)
		b.byOrg[spec.Name] = rt
		// Register ownership knowledge (WhoTracksMe-style).
		domains := append([]string(nil), spec.Domains...)
		domains = append(domains, spec.SiteDomains...)
		if err := b.orgdb.AddOrg(trackerdb.Org{
			Name: spec.Name, Country: spec.Country,
			Category: spec.Category, Domains: domains,
			ConsumerDomains: spec.SiteDomains,
		}); err != nil {
			return err
		}
	}
	return nil
}

// ensureOrgHosts materializes an org's serving hosts in a country and
// returns their addresses.
func (b *builder) ensureOrgHosts(rt *orgRuntime, country string) ([]netip.Addr, error) {
	cityID, ok := hostingCity[country]
	if !ok {
		c, found := b.reg.Country(country)
		if !found {
			return nil, fmt.Errorf("worldgen: unknown hosting country %q", country)
		}
		cityID = c.Capital().ID()
	}
	if addrs, ok := rt.hosts[cityID]; ok {
		return addrs, nil
	}
	city, ok := b.reg.City(cityID)
	if !ok {
		return nil, fmt.Errorf("worldgen: unknown hosting city %q", cityID)
	}
	r := rng.New(b.seed, "org-hosts", rt.spec.Name, cityID)
	var addrs []netip.Addr
	n := 4
	for i := 0; i < n; i++ {
		// The first edge in every city always answers probes; real
		// anycast edges do, and a fully silent deployment would be
		// invisible to the study.
		h, err := b.net.AddHost(netsim.Host{
			City:       city,
			ASN:        rt.asn,
			Responsive: i == 0 || rng.Bernoulli(r, 0.85),
		})
		if err != nil {
			return nil, err
		}
		// Reverse DNS policy: most edges publish a geo-hinted PTR, some an
		// opaque one, some none at all (§4.1.3).
		switch {
		case rng.Bernoulli(r, 0.60):
			b.dns.SetPTR(h.Addr, geodb.HintHostname(city, rt.spec.Domains[0], i+1))
		case rng.Bernoulli(r, 0.60):
			b.dns.SetPTR(h.Addr, geodb.OpaqueHostname(rt.spec.Domains[0], r.IntN(900000)+100000))
		}
		addrs = append(addrs, h.Addr)
	}
	rt.hosts[cityID] = addrs
	return addrs, nil
}

// destFor decides where an org serves one source country from.
func (b *builder) destFor(spec *CountrySpec, rt *orgRuntime, r *rand.Rand) string {
	org := rt.spec
	if contains(b.opts.Localize, spec.Code) {
		return spec.Code // scenario: the country's data-localization law worked
	}
	if d, ok := org.DestOverrides[spec.Code]; ok {
		return d
	}
	if org.ServeOnlyFromUS {
		return "US"
	}
	if org.Name == "Google" {
		if spec.GoogleDest != "" {
			return spec.GoogleDest
		}
		return spec.Code
	}
	isMajor := org.Name == "Twitter" || org.Name == "Facebook" || org.Name == "Amazon" || org.Name == "Yahoo"
	if spec.MajorsLocal && isMajor {
		return spec.Code
	}
	if len(org.OnlyCountries) == 0 && org.Country == spec.Code {
		return spec.Code // domestic orgs serve domestically
	}
	// Pick from the country's calibrated mix, excluding the US (reached
	// only through ServeOnlyFromUS orgs).
	var dests []string
	var total float64
	for d, w := range spec.DestMix {
		if d == "US" || w <= 0 {
			continue
		}
		dests = append(dests, d)
		total += w
	}
	if len(dests) == 0 || total <= 0 {
		return spec.Code
	}
	// A slice of orgs serves in-country even in high-foreign markets.
	if rng.Bernoulli(r, 0.18) {
		return spec.Code
	}
	// The destination is the inverse-CDF of the mix at the org's global
	// hosting affinity u, with destinations in a canonical priority order.
	// Using one u per org (not per country) correlates the org's choices
	// across source countries: an org hosting in Frankfurt serves MOST of
	// its markets from Frankfurt. Without this, every organization would
	// eventually appear in every popular destination and the Fig 7
	// hosting-country counts would collapse into uniformity.
	sort.Slice(dests, func(i, j int) bool {
		ri, rj := destRank(dests[i]), destRank(dests[j])
		if ri != rj {
			return ri < rj
		}
		return dests[i] < dests[j]
	})
	u := rng.New(b.seed, "org-affinity", rt.spec.Name).Float64()
	cum := 0.0
	for _, d := range dests {
		cum += spec.DestMix[d] / total
		if u < cum {
			return d
		}
	}
	return dests[len(dests)-1]
}

// destPriority fixes the canonical destination ordering for affinity
// sampling; destinations not listed sort after, alphabetically.
var destPriority = map[string]int{
	"FR": 0, "DE": 1, "GB": 2, "KE": 3, "AU": 4, "MY": 5, "SG": 6,
	"HK": 7, "JP": 8, "FI": 9, "BR": 10, "NL": 11, "IE": 12, "IT": 13,
	"AE": 14, "OM": 15, "BH": 16,
}

func destRank(cc string) int {
	if r, ok := destPriority[cc]; ok {
		return r
	}
	return 100
}

func (b *builder) assignServing() error {
	for i := range b.specs {
		spec := &b.specs[i]
		for _, rt := range b.orgRTs {
			if len(rt.spec.OnlyCountries) > 0 && !contains(rt.spec.OnlyCountries, spec.Code) {
				continue
			}
			r := rng.New(b.seed, "serving", rt.spec.Name, spec.Code)
			dest := b.destFor(spec, rt, r)
			addrs, err := b.ensureOrgHosts(rt, dest)
			if err != nil {
				return err
			}
			responsive := addrs[:0:0]
			for _, a := range addrs {
				if h, ok := b.net.HostByAddr(a); ok && h.Responsive {
					responsive = append(responsive, a)
				}
			}
			rt.serve[spec.Code] = serveInfo{Dest: dest, Addrs: responsive}
		}
	}
	return nil
}

func (b *builder) registerOrgDNS() error {
	for _, rt := range b.orgRTs {
		// Default PoP: the org's HQ country (fallback: US).
		defCountry := rt.spec.Country
		if _, ok := b.reg.Country(defCountry); !ok {
			defCountry = "US"
		}
		defAddrs, err := b.ensureOrgHosts(rt, defCountry)
		if err != nil {
			return err
		}
		rt.defAddr = defAddrs[0]
		// Cache domains get in-country hosts in every source market.
		// (Iteration must be ordered: host creation order determines
		// address assignment, and the whole world must be reproducible.)
		if len(rt.localBase) > 0 {
			ccs := make([]string, 0, len(rt.serve))
			for cc := range rt.serve {
				ccs = append(ccs, cc)
			}
			sort.Strings(ccs)
			for _, cc := range ccs {
				addrs, err := b.ensureOrgHosts(rt, cc)
				if err != nil {
					return err
				}
				rt.localAddrs[cc] = addrs
			}
		}
		for _, base := range rt.spec.Domains {
			byCountry := make(map[string]netip.Addr, len(rt.serve))
			for cc := range rt.serve {
				byCountry[cc] = rt.addrFor(cc, base)
			}
			if err := b.dns.Register(dnssim.Service{
				Domain:    base,
				Wildcard:  true,
				PoPs:      []netip.Addr{rt.defAddr},
				ByCountry: byCountry,
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

func (b *builder) buildInfraServices() error {
	if err := b.net.AddAS(netsim.AS{Number: 20940, Name: "INFRA-CDN", Org: "Edge Infrastructure CDN", Country: "US"}); err != nil {
		return err
	}
	for _, svc := range infraServices {
		var pops []netip.Addr
		for _, cityID := range svc.PoPs {
			city, ok := b.reg.City(cityID)
			if !ok {
				return fmt.Errorf("worldgen: infra city %q missing", cityID)
			}
			h, err := b.net.AddHost(netsim.Host{City: city, ASN: 20940, Responsive: true})
			if err != nil {
				return err
			}
			b.dns.SetPTR(h.Addr, geodb.HintHostname(city, websim.DomainOf("https://"+svc.Hostname+"/"), 1))
			pops = append(pops, h.Addr)
		}
		base := svc.Hostname[strings.Index(svc.Hostname, ".")+1:]
		if err := b.dns.Register(dnssim.Service{
			Domain:   base,
			Wildcard: true,
			PoPs:     pops,
			Nearest:  true,
		}); err != nil {
			return err
		}
	}
	return nil
}

// buildHostingPools creates shared web-hosting hosts per country plus the
// European/US pools used by foreign-hosted sites.
func (b *builder) buildHostingPools() error {
	hostingCountries := append([]string{}, geo.SourceCountryCodes()...)
	hostingCountries = append(hostingCountries, "FR", "DE")
	asn := uint32(398000)
	for _, cc := range hostingCountries {
		country, ok := b.reg.Country(cc)
		if !ok {
			return fmt.Errorf("worldgen: hosting country %q missing", cc)
		}
		if err := b.net.AddAS(netsim.AS{
			Number: asn, Name: "WEBHOST-" + cc,
			Org: "Web Hosting " + country.Name, Country: cc,
		}); err != nil {
			return err
		}
		r := rng.New(b.seed, "hosting", cc)
		for i := 0; i < 6; i++ {
			city := country.Cities[r.IntN(len(country.Cities))]
			h, err := b.net.AddHost(netsim.Host{City: city, ASN: asn, Responsive: rng.Bernoulli(r, 0.85)})
			if err != nil {
				return err
			}
			if rng.Bernoulli(r, 0.5) {
				b.dns.SetPTR(h.Addr, geodb.HintHostname(city, "webhost-"+strings.ToLower(cc)+".net", i+1))
			}
			b.hostingHosts[cc] = append(b.hostingHosts[cc], h.Addr)
		}
		asn++
	}
	return nil
}

// buildTLS assigns a TLS deployment to every host: organization edges run
// modern stacks, infra CDNs modern-to-dated, shared web hosting uses
// SNI-issued certificates with mixed maintenance, and a tail of servers is
// plainly neglected. orgDomains maps each tracker org to its base domains.
func buildTLS(seed uint64, net *netsim.Network, orgDomains map[string][]string) *tlsprobe.Registry {
	reg := tlsprobe.NewRegistry()
	now := studyDate()
	for _, h := range net.Hosts() {
		r := rng.New(seed, "tls-profile", h.Addr.String())
		as, _ := net.ASByNumber(h.ASN)
		var profile tlsprobe.Profile
		sni := false
		subject := "edge.invalid"
		switch {
		case h.ASN == awsASN || h.ASN == gcpASN || h.ASN == 15169 || h.ASN == 32934 || h.ASN == 13414:
			profile = tlsprobe.ProfileModern
			subject = hostSubject(orgDomains, as)
		case strings.HasPrefix(as.Name, "WEBHOST-"):
			sni = true
			if rng.Bernoulli(r, 0.25) {
				profile = tlsprobe.ProfileNeglected
			} else if rng.Bernoulli(r, 0.5) {
				profile = tlsprobe.ProfileDated
			} else {
				profile = tlsprobe.ProfileModern
			}
		case strings.HasPrefix(as.Name, "PROBE-HOST-"):
			profile = tlsprobe.ProfileDated
		default:
			profile = tlsprobe.ProfileModern
			if rng.Bernoulli(r, 0.3) {
				profile = tlsprobe.ProfileDated
			}
			subject = hostSubject(orgDomains, as)
		}
		d := tlsprobe.GenerateDeployment(seed, h.Addr, subject, profile, now)
		d.SNICert = sni
		for _, base := range orgDomains[as.Org] {
			d.Cert.SANs = append(d.Cert.SANs, base, "*."+base)
		}
		reg.Set(d)
	}
	return reg
}

// hostSubject picks the certificate subject for an org-operated host: the
// org's primary domain with a wildcard SAN, which covers all its endpoint
// hostnames.
func hostSubject(orgDomains map[string][]string, as netsim.AS) string {
	if domains := orgDomains[as.Org]; len(domains) > 0 {
		return domains[0]
	}
	return strings.ToLower(as.Name) + ".example"
}

// studyDate anchors certificate validity to the data-collection date.
func studyDate() time.Time { return time.Date(2024, 3, 16, 0, 0, 0, 0, time.UTC) }

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func round(x float64) int { return int(math.Round(x)) }
