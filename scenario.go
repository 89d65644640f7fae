package gamma

import (
	"context"
	"fmt"
	"net/netip"
	"sort"

	"github.com/gamma-suite/gamma/internal/core"
	"github.com/gamma-suite/gamma/internal/geo"
	"github.com/gamma-suite/gamma/internal/geodb"
	"github.com/gamma-suite/gamma/internal/geoloc"
	"github.com/gamma-suite/gamma/internal/stats"
	"github.com/gamma-suite/gamma/internal/worldgen"
)

// NewLocalizedWorld builds the world as it would look after the listed
// countries' data-localization laws took effect with full compliance:
// every organization serving them does so from domestic infrastructure.
// Everything else about the world is identical to NewWorld(seed), so
// before/after comparisons isolate the law's effect — the longitudinal
// study §8 proposes, with the paper's dataset as the "before" snapshot
// (it was recorded the day before Jordan's PDPL took effect).
func NewLocalizedWorld(seed uint64, countries ...string) (*World, error) {
	return worldgen.BuildWithOptions(seed, worldgen.Options{Localize: countries})
}

// ScenarioDiff compares one country's measured tracking exposure across
// two worlds (e.g., before and after a localization law).
type ScenarioDiff struct {
	Country string `json:"country"`
	// Before/After report the share of loaded sites with ≥1 non-local
	// tracker and the count of retained non-local tracker domains.
	BeforePct     float64 `json:"before_pct"`
	AfterPct      float64 `json:"after_pct"`
	BeforeDomains int     `json:"before_domains"`
	AfterDomains  int     `json:"after_domains"`
	// Departed lists destination countries that no longer receive the
	// country's tracking data after the change.
	Departed []string `json:"departed,omitempty"`
}

// RunScenario measures a country in both worlds and diffs the outcome.
func RunScenario(ctx context.Context, before, after *World, cc string) (ScenarioDiff, error) {
	measure := func(w *World) (float64, int, map[string]bool, error) {
		sels, err := SelectTargets(w)
		if err != nil {
			return 0, 0, nil, err
		}
		sel, ok := sels[cc]
		if !ok {
			return 0, 0, nil, fmt.Errorf("gamma: no volunteer in %s", cc)
		}
		ds, err := RunVolunteer(ctx, w, cc, sel)
		if err != nil {
			return 0, 0, nil, err
		}
		res, err := Analyze(w, []*core.Dataset{ds})
		if err != nil {
			return 0, 0, nil, err
		}
		cr := res.Countries[cc]
		loaded, hit := 0, 0
		dests := map[string]bool{}
		for _, s := range cr.Sites {
			if !s.LoadOK {
				continue
			}
			loaded++
			nl := s.NonLocalTrackers()
			if len(nl) > 0 {
				hit++
			}
			for _, d := range nl {
				dests[d.DestCountry] = true
			}
		}
		return stats.Percent(hit, loaded), cr.Funnel.NonLocal, dests, nil
	}

	out := ScenarioDiff{Country: cc}
	var beforeDests, afterDests map[string]bool
	var err error
	if out.BeforePct, out.BeforeDomains, beforeDests, err = measure(before); err != nil {
		return out, err
	}
	if out.AfterPct, out.AfterDomains, afterDests, err = measure(after); err != nil {
		return out, err
	}
	for d := range beforeDests {
		if !afterDests[d] {
			out.Departed = append(out.Departed, d)
		}
	}
	sort.Strings(out.Departed)
	return out, nil
}

// DBAccuracy scores one geolocation database against ground truth.
type DBAccuracy struct {
	DB          string  `json:"db"`
	Entries     int     `json:"entries"`
	CoveragePct float64 `json:"coverage_pct"`
	CountryPct  float64 `json:"country_pct"` // correct-country rate
	CityPct     float64 `json:"city_pct"`    // correct-city rate
	MedianErrKm float64 `json:"median_err_km"`
}

// CompareGeoDBs scores the study's IPmap-style database and every
// commercial-style alternative against the simulator's ground truth — the
// §4.1 reliability comparison the geolocation literature performs.
func CompareGeoDBs(w *World) []DBAccuracy {
	dbs := map[string]*geodb.DB{w.IPMap.Name(): w.IPMap}
	for name, db := range w.AltDBs() {
		dbs[name] = db
	}
	hosts := w.Net.Hosts()
	var out []DBAccuracy
	names := make([]string, 0, len(dbs))
	for name := range dbs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		db := dbs[name]
		acc := DBAccuracy{DB: name, Entries: db.Len()}
		var errs []float64
		covered, country, city := 0, 0, 0
		for _, h := range hosts {
			claim, ok := db.Lookup(h.Addr)
			if !ok {
				continue
			}
			covered++
			if claim.Country == h.City.Country {
				country++
			}
			if claim.ID() == h.City.ID() {
				city++
			}
			errs = append(errs, geo.DistanceKm(claim.Coord, h.City.Coord))
		}
		acc.CoveragePct = stats.Percent(covered, len(hosts))
		acc.CountryPct = stats.Percent(country, covered)
		acc.CityPct = stats.Percent(city, covered)
		acc.MedianErrKm = stats.Quantile(errs, 0.5)
		out = append(out, acc)
	}
	return out
}

// ClassifyWithDB reruns local/non-local classification for one country
// using an alternative database and reports how many claims flip relative
// to the primary database — the cost of trusting a different provider.
func ClassifyWithDB(w *World, cc string, db *geodb.DB, addrs []netip.Addr) (flips int) {
	vol := w.Volunteers[cc]
	// Database-only classification isolates what the provider choice does.
	cfg := geoloc.Config{
		ReferenceFloor:               0.8,
		DisableSourceConstraint:      true,
		DisableDestinationConstraint: true,
		DisableRDNSConstraint:        true,
	}
	fw1 := geoloc.New(cfg, w.IPMap, nil, nil, w.Registry)
	fw2 := geoloc.New(cfg, db, nil, nil, w.Registry)
	for _, addr := range addrs {
		v1 := fw1.Classify(cc, vol.City, geoloc.Candidate{Domain: "x", Addr: addr})
		v2 := fw2.Classify(cc, vol.City, geoloc.Candidate{Domain: "x", Addr: addr})
		if v1.Class != v2.Class {
			flips++
		}
	}
	return flips
}
