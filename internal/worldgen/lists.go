package worldgen

import (
	"fmt"
	"sort"
	"strings"

	"github.com/gamma-suite/gamma/internal/filterlist"
	"github.com/gamma-suite/gamma/internal/geo"
	"github.com/gamma-suite/gamma/internal/geodb"
	"github.com/gamma-suite/gamma/internal/netsim"
	"github.com/gamma-suite/gamma/internal/rng"
	"github.com/gamma-suite/gamma/internal/websim"
)

// similarwebMissing lists source countries for which the similarweb-style
// source publishes no regional ranking; target selection falls back to the
// semrush-style source there (§3.2).
var similarwebMissing = map[string]bool{"RW": true, "AZ": true}

// buildRankings materializes the three ranking sources, the Tranco-style
// global list, and the volunteers' opt-out choices.
func (b *builder) buildRankings() error {
	if b.lists == nil {
		return fmt.Errorf("worldgen: buildRankings before buildSites")
	}
	rank := &Rankings{
		Similarweb: make(map[string][]string),
		Semrush:    make(map[string][]string),
		Ahrefs:     make(map[string][]string),
	}

	// mix interleaves the country's adult decoys into a ranking list.
	mix := func(cc string, base []string, r interface{ IntN(int) int }) []string {
		out := append([]string(nil), base...)
		for i := 0; i < 2; i++ {
			pos := r.IntN(len(out) + 1)
			out = append(out[:pos], append([]string{adultSiteName(cc, i)}, out[pos:]...)...)
		}
		return out
	}

	for _, cc := range b.world.SourceCountries() {
		r := rng.New(b.seed, "rankings", cc)
		top := b.lists.top50[cc]
		extra := b.lists.extra[cc]

		if !similarwebMissing[cc] {
			rank.Similarweb[cc] = mix(cc, top, r)
		}
		// Semrush: 33/50 overlap (66%) with the true top list — except
		// where it is the primary source, where it carries the full list.
		if similarwebMissing[cc] {
			rank.Semrush[cc] = mix(cc, top, r)
		} else {
			rank.Semrush[cc] = mix(cc, overlapList(top, extra, 33, r), r)
		}
		// Ahrefs: 24/50 overlap (48%).
		rank.Ahrefs[cc] = mix(cc, overlapList(top, extra, 24, r), r)
	}

	// Synthetic rankings for non-source countries complete the 58-country
	// overlap sample.
	var complete []string
	for _, cc := range b.world.SourceCountries() {
		if !similarwebMissing[cc] {
			complete = append(complete, cc)
		}
	}
	for _, country := range b.reg.Countries() {
		if len(complete) >= 58 {
			break
		}
		cc := country.Code
		if _, isSource := b.world.Specs[cc]; isSource {
			continue
		}
		r := rng.New(b.seed, "rankings-synth", cc)
		var names []string
		for i := 0; i < 70; i++ {
			n, _ := regionalSiteName("US", i, r) // generic names; never crawled
			names = append(names, strings.TrimSuffix(n, ".com")+"."+strings.ToLower(cc))
		}
		top := names[:50]
		rank.Similarweb[cc] = top
		rank.Semrush[cc] = overlapList(top, names[50:], 33, r)
		rank.Ahrefs[cc] = overlapList(top, names[50:], 24, r)
		complete = append(complete, cc)
	}
	sort.Strings(complete)
	rank.Complete = complete
	b.world.Rankings = rank

	// Tranco-style global list: all crawled sites plus a sampled subset of
	// government sites (gov-sparse countries keep what little they have).
	r := rng.New(b.seed, "tranco")
	var tranco []string
	for _, s := range b.web.Sites() {
		switch s.Kind {
		case websim.Government:
			if rng.Bernoulli(r, 0.80) {
				tranco = append(tranco, s.Domain)
			}
		default:
			tranco = append(tranco, s.Domain)
		}
	}
	r.Shuffle(len(tranco), func(i, j int) { tranco[i], tranco[j] = tranco[j], tranco[i] })
	b.world.Tranco = tranco

	// Volunteer opt-outs: the first N of the country's own target list.
	for _, cc := range b.world.SourceCountries() {
		spec := b.world.Specs[cc]
		if spec.OptOutSites == 0 {
			continue
		}
		vol := b.world.Volunteers[cc]
		all := append(append([]string(nil), b.lists.top50[cc]...), b.lists.gov[cc]...)
		rr := rng.New(b.seed, "opt-out", cc)
		rr.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		for i := 0; i < spec.OptOutSites && i < len(all); i++ {
			vol.OptOutSites = append(vol.OptOutSites, all[i])
		}
		sort.Strings(vol.OptOutSites)
	}
	return nil
}

// overlapList keeps the first `keep` entries of top (after a shuffle) and
// fills to len(top) from the fallback pool.
func overlapList(top, pool []string, keep int, r interface {
	IntN(int) int
	Shuffle(int, func(int, int))
}) []string {
	shuffled := append([]string(nil), top...)
	r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	if keep > len(shuffled) {
		keep = len(shuffled)
	}
	out := append([]string(nil), shuffled[:keep]...)
	for _, p := range pool {
		if len(out) >= len(top) {
			break
		}
		out = append(out, p)
	}
	// Pad with synthesized names when the pool is short.
	for i := 0; len(out) < len(top); i++ {
		out = append(out, fmt.Sprintf("filler-%d.example", i))
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// buildFilterLists generates the EasyList/EasyPrivacy equivalents plus the
// regional lists, holding out the manually-identified domains (§4.2).
func (b *builder) buildFilterLists() error {
	r := rng.New(b.seed, "filterlists")

	// Manual hold-outs: smaller orgs' base domains that no list covers.
	// TheOzoneProject is the paper's worked example of a manual label.
	manualBases := map[string]bool{"theozone-project.com": true}
	var smallBases []string
	for _, rt := range b.orgRTs {
		isMajor := rt.spec.Weight >= 2
		for _, d := range rt.spec.Domains {
			if !isMajor && d != "theozone-project.com" {
				smallBases = append(smallBases, d)
			}
		}
	}
	sort.Strings(smallBases)
	r.Shuffle(len(smallBases), func(i, j int) { smallBases[i], smallBases[j] = smallBases[j], smallBases[i] })
	for i := 0; i < 8 && i < len(smallBases); i++ {
		manualBases[smallBases[i]] = true
	}
	b.world.ManualTrackers = manualBases

	var easylist, easyprivacy strings.Builder
	easylist.WriteString("[Adblock Plus 2.0]\n! Title: EasyList (synthetic)\n")
	easyprivacy.WriteString("[Adblock Plus 2.0]\n! Title: EasyPrivacy (synthetic)\n")
	// Generic cosmetic/path rules for realism.
	easylist.WriteString("/adbanner/*\n/popunder.\n")
	easyprivacy.WriteString("/telemetry/collect^\n")

	for _, rt := range b.orgRTs {
		for _, d := range rt.spec.Domains {
			if manualBases[d] {
				continue
			}
			rule := "||" + d + "^"
			switch rt.spec.Category {
			case "analytics", "social":
				easyprivacy.WriteString(rule + "$third-party\n")
			default:
				easylist.WriteString(rule + "\n")
			}
		}
	}
	// A few full-hostname rules, mirroring the handful of FQDN entries in
	// the paper's identified set.
	easylist.WriteString("||pixel.googlesyndication.com^\n")
	easyprivacy.WriteString("||collect.google-analytics.com^$third-party\n")

	b.world.EasyList = filterlist.ParseList("easylist", easylist.String())
	b.world.EasyPrivacy = filterlist.ParseList("easyprivacy", easyprivacy.String())

	// Regional lists (India, Sri Lanka) cover region-specific orgs even
	// when the global lists miss them.
	regional := map[string][]string{
		"IN": {"affle-mediasmart.com"},
		"LK": {"lanka-adnet.com", "adstudio.cloud"},
	}
	for cc, domains := range regional {
		var sb strings.Builder
		fmt.Fprintf(&sb, "! Title: regional list %s\n", cc)
		for _, d := range domains {
			sb.WriteString("||" + d + "^\n")
			delete(b.world.ManualTrackers, d) // covered by a list after all
		}
		b.world.RegionalLists[cc] = filterlist.ParseList("regional-"+strings.ToLower(cc), sb.String())
	}
	return nil
}

// buildGeoDBs derives the IPmap-style database (with curated error cases)
// and the reference latency tables. The commercial databases are built on
// first use, by buildAltDBs.
func (b *builder) buildGeoDBs() error {
	b.world.IPMap = geodb.Build("ripe-ipmap", b.net, b.reg, geodb.DefaultBuildConfig(b.seed))

	// Curated error, mirroring §4.1.3's worked example: a Google edge
	// serving Pakistan is misplaced by the database into Al Fujairah (AE),
	// while its reverse DNS betrays the true city.
	google := b.byOrg["Google"]
	if si, ok := google.serve["PK"]; ok && si.Dest != "PK" {
		addr := google.addrFor("PK", "doubleclick.net")
		if fuj, found := b.reg.City("Al Fujairah, AE"); found && addr.IsValid() {
			b.world.IPMap.Set(addr, fuj)
			if host, ok := b.net.HostByAddr(addr); ok {
				b.dns.SetPTR(addr, geodb.HintHostname(host.City, "doubleclick.net", 9))
			}
		}
	}

	latency := b.net.BaseRTTMs
	b.world.RefLat = geodb.DefaultRefTables(latency, b.seed)
	return nil
}

// buildAltDBs derives the commercial-style databases. They answer for
// everything but are wrong more often — the unreliability the §4.1
// literature documents. Error profiles are loosely inspired by published
// country-level accuracy comparisons.
func buildAltDBs(seed uint64, net *netsim.Network, reg *geo.Registry) map[string]*geodb.DB {
	return map[string]*geodb.DB{
		"maxmind-sim": geodb.Build("maxmind-sim", net, reg, geodb.BuildConfig{
			Seed: seed + 1, Coverage: 1.0,
			WrongCityProb: 0.30, WrongCountryNearProb: 0.09, WrongCountryFarProb: 0.03, NearKm: 1500,
		}),
		"dbip-sim": geodb.Build("dbip-sim", net, reg, geodb.BuildConfig{
			Seed: seed + 2, Coverage: 1.0,
			WrongCityProb: 0.38, WrongCountryNearProb: 0.13, WrongCountryFarProb: 0.05, NearKm: 2000,
		}),
		"ipinfo-sim": geodb.Build("ipinfo-sim", net, reg, geodb.BuildConfig{
			Seed: seed + 3, Coverage: 0.99,
			WrongCityProb: 0.26, WrongCountryNearProb: 0.08, WrongCountryFarProb: 0.02, NearKm: 1500,
		}),
	}
}
