// Package serve is the query layer over analyzed tracking-flow corpora:
// it turns a pipeline.Result (Box 2's output) into an immutable, fully
// precomputed Snapshot and serves it over a small net/http API
// (/v1/countries, /v1/countries/{cc}, /v1/trackers/{domain}, /v1/flows,
// /v1/figures/{id}).
//
// Design rules, in order:
//
//   - Snapshots are immutable. Every response body is JSON-encoded once,
//     at build time, so steady-state serving is a map lookup plus a
//     buffer write — zero allocations on the hot path.
//   - Response bytes are a pure function of the analyzed corpus. Nothing
//     volatile (build timestamps, request counters) leaks into /v1
//     bodies, so the same study serves byte-identical responses across
//     worker counts, process restarts, and snapshot reloads.
//   - Swaps are atomic. Store holds the live snapshot behind an
//     atomic.Pointer; Install validates before swapping and leaves the
//     old snapshot serving on bad input, so a reload never causes
//     downtime or a half-updated view.
package serve

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"time"

	"github.com/gamma-suite/gamma/internal/analysis"
	"github.com/gamma-suite/gamma/internal/geo"
	"github.com/gamma-suite/gamma/internal/geoloc"
	"github.com/gamma-suite/gamma/internal/pipeline"
	"github.com/gamma-suite/gamma/internal/stats"
)

// Meta labels a snapshot for observability. It never appears in /v1
// response bodies (those are pure functions of the corpus); it is exposed
// through /debug/metrics and the X-Gamma-Snapshot response header.
type Meta struct {
	// ID names the snapshot's provenance, e.g. "seed-42" or "data-./uploads".
	ID string `json:"id"`
	// BuiltAt is stamped by the caller's clock (sched.Wall() at the edge,
	// a fake clock in tests).
	BuiltAt time.Time `json:"built_at"`
}

// payload is one precomputed response: the encoded body plus the
// ready-made Content-Length and ETag header values, so writing it — or
// answering an If-None-Match revalidation with a 304 — performs no
// per-request allocation.
type payload struct {
	body []byte
	clen []string
	etag []string // single element: the quoted body hash, strong-validator form
}

func newPayload(v any) (payload, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return payload{}, fmt.Errorf("serve: encode payload: %w", err)
	}
	return payload{
		body: body,
		clen: []string{strconv.Itoa(len(body))},
		etag: []string{etagFor(body)},
	}, nil
}

// FNV-1a constants for etagFor, the same hashing idiom internal/filterlist
// uses for its reverse token index.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// etagFor computes a payload's strong entity tag: the quoted FNV-1a hash
// of the body bytes. Bodies are pure functions of the corpus, so the tag
// is stable across rebuilds and worker counts — a client cache stays
// valid across a same-corpus hot reload.
func etagFor(body []byte) string {
	h := uint64(fnvOffset64)
	for _, c := range body {
		h = (h ^ uint64(c)) * fnvPrime64
	}
	const hexdigits = "0123456789abcdef"
	var buf [18]byte
	buf[0] = '"'
	for i := 0; i < 16; i++ {
		buf[1+i] = hexdigits[(h>>(60-4*i))&0xf]
	}
	buf[17] = '"'
	return string(buf[:])
}

// Snapshot is an immutable, read-optimized view of one analyzed corpus.
// All indexes and response bodies are precomputed by Build; a Snapshot is
// safe for unsynchronized concurrent use forever after.
type Snapshot struct {
	meta     Meta
	idHeader []string // Meta.ID, preallocated for the response header

	countries payload            // /v1/countries
	country   map[string]payload // /v1/countries/{cc}; keys in both letter cases
	trackers  payload            // /v1/trackers
	tracker   map[string]payload // /v1/trackers/{domain}; lowercase keys
	flows     payload            // /v1/flows
	figIndex  payload            // /v1/figures
	figure    map[string]payload // /v1/figures/{id}

	codes   []string // sorted upper-case country codes
	domains []string // sorted tracker domains
}

// --- response shapes (field order is the wire order) ---

// CountrySummary is one row of the /v1/countries listing.
type CountrySummary struct {
	Code             string  `json:"code"`
	City             string  `json:"city"`
	Continent        string  `json:"continent,omitempty"`
	Targets          int     `json:"targets"`
	LoadedOK         int     `json:"loaded_ok"`
	UniqueDomains    int     `json:"unique_domains"`
	NonLocalTrackers int     `json:"non_local_trackers"`
	PrevalencePct    float64 `json:"prevalence_pct"`
}

// CountryListing is the /v1/countries response body.
type CountryListing struct {
	Count     int              `json:"count"`
	Countries []CountrySummary `json:"countries"`
}

// DestCount is one hosting destination inside a country profile.
type DestCount struct {
	Country string `json:"country"`
	Domains int    `json:"domains"`
}

// OrgCount is one tracker organization inside a country profile.
type OrgCount struct {
	Org     string `json:"org"`
	Domains int    `json:"domains"`
}

// CountryProfile is the /v1/countries/{cc} response body: everything the
// atlas knows about one source country, indexes pre-joined.
type CountryProfile struct {
	Code             string               `json:"code"`
	City             string               `json:"city"`
	Continent        string               `json:"continent,omitempty"`
	TraceOrigin      string               `json:"trace_origin"`
	Targets          int                  `json:"targets"`
	OptOuts          int                  `json:"opt_outs"`
	LoadedOK         int                  `json:"loaded_ok"`
	LoadSuccessPct   float64              `json:"load_success_pct"`
	Composition      analysis.Composition `json:"composition"`
	Prevalence       analysis.Prevalence  `json:"prevalence"`
	Funnel           geoloc.FunnelCounts  `json:"funnel"`
	Traces           pipeline.TraceStats  `json:"traces"`
	UniqueDomains    int                  `json:"unique_domains"`
	NonLocalTrackers []pipeline.DomainObs `json:"non_local_trackers"`
	Destinations     []DestCount          `json:"destinations"`
	Organizations    []OrgCount           `json:"organizations"`
}

// TrackerObservation is one source country's sighting of a tracker domain.
type TrackerObservation struct {
	Country     string `json:"country"`
	Source      string `json:"identified_via"`
	DestCountry string `json:"dest_country,omitempty"`
	DestCity    string `json:"dest_city,omitempty"`
	HostASN     uint32 `json:"host_asn,omitempty"`
	HostASOrg   string `json:"host_as_org,omitempty"`
	Cloaked     bool   `json:"cloaked,omitempty"`
}

// TrackerProfile is the /v1/trackers/{domain} response body — the
// reverse index answering "who observes this tracker, and from where?".
type TrackerProfile struct {
	Domain        string               `json:"domain"`
	Org           string               `json:"org,omitempty"`
	OrgCountry    string               `json:"org_country,omitempty"`
	Cloaked       bool                 `json:"cloaked,omitempty"`
	Countries     []string             `json:"countries"`
	DestCountries []string             `json:"dest_countries"`
	ObservedFrom  []TrackerObservation `json:"observed_from"`
}

// TrackerListing is the /v1/trackers response body.
type TrackerListing struct {
	Count   int      `json:"count"`
	Domains []string `json:"domains"`
}

// FlowsPayload is the /v1/flows response body: the full RQ2 flow picture.
type FlowsPayload struct {
	CountryFlows   []analysis.Flow          `json:"country_flows"`
	FlowShares     []analysis.FlowShare     `json:"flow_shares"`
	DestShares     []analysis.DestShare     `json:"dest_shares"`
	ContinentFlows []analysis.ContinentFlow `json:"continent_flows"`
	OrgFlows       []analysis.OrgFlow       `json:"org_flows"`
	OrgTotals      []analysis.OrgFlow       `json:"org_totals"`
}

// FigureListing is the /v1/figures response body.
type FigureListing struct {
	Figures []string `json:"figures"`
}

// figureBody wraps one figure payload with its identifier.
type figureBody struct {
	ID   string `json:"id"`
	Data any    `json:"data"`
}

// Build constructs a Snapshot from one analyzed corpus. It precomputes
// every index and JSON-encodes every response body exactly once; the
// bodies depend only on res/reg/policies, never on meta or wall time.
func Build(res *pipeline.Result, reg *geo.Registry, policies map[string]analysis.PolicyInfo, meta Meta) (*Snapshot, error) {
	if res == nil || reg == nil {
		return nil, fmt.Errorf("serve: Build requires a non-nil result and registry")
	}
	s := &Snapshot{
		meta:     meta,
		idHeader: []string{meta.ID},
		country:  map[string]payload{},
		tracker:  map[string]payload{},
		figure:   map[string]payload{},
		codes:    res.CountryCodes(),
	}
	var err error

	prevBy := map[string]analysis.Prevalence{}
	for _, p := range analysis.Fig3Prevalence(res) {
		prevBy[p.Country] = p
	}
	compBy := map[string]analysis.Composition{}
	for _, c := range analysis.Fig2Composition(res) {
		compBy[c.Country] = c
	}

	// Per-country profiles plus their listing rows, in sorted country order.
	listing := CountryListing{}
	for _, cc := range s.codes {
		cr := res.Countries[cc]
		profile := buildCountryProfile(cc, cr, reg, compBy[cc], prevBy[cc])
		pl, err := newPayload(profile)
		if err != nil {
			return nil, err
		}
		addFolded(s.country, cc, pl)
		listing.Countries = append(listing.Countries, CountrySummary{
			Code:             cc,
			City:             profile.City,
			Continent:        profile.Continent,
			Targets:          cr.Targets,
			LoadedOK:         cr.LoadedOK,
			UniqueDomains:    len(cr.Verdicts),
			NonLocalTrackers: len(profile.NonLocalTrackers),
			PrevalencePct:    profile.Prevalence.OverallPct,
		})
	}
	listing.Count = len(listing.Countries)
	if s.countries, err = newPayload(listing); err != nil {
		return nil, err
	}

	// Tracker reverse index: domain → observing countries and their
	// sightings. Assembled from the per-country sorted verdicts so the
	// observation order is (domain, country)-sorted by construction.
	byDomain := map[string]*TrackerProfile{}
	for _, cc := range s.codes {
		for _, obs := range res.Countries[cc].SortedDomains() {
			if obs.Class != geoloc.NonLocal || !obs.IsTracker {
				continue
			}
			tp := byDomain[obs.Domain]
			if tp == nil {
				tp = &TrackerProfile{Domain: obs.Domain}
				byDomain[obs.Domain] = tp
			}
			if obs.Org != "" {
				tp.Org, tp.OrgCountry = obs.Org, obs.OrgCountry
			}
			if obs.Cloaked {
				tp.Cloaked = true
			}
			tp.Countries = append(tp.Countries, cc)
			tp.ObservedFrom = append(tp.ObservedFrom, TrackerObservation{
				Country:     cc,
				Source:      obs.TrackerSource,
				DestCountry: obs.DestCountry,
				DestCity:    obs.DestCity,
				HostASN:     obs.HostASN,
				HostASOrg:   obs.HostASOrg,
				Cloaked:     obs.Cloaked,
			})
		}
	}
	s.domains = make([]string, 0, len(byDomain))
	for domain := range byDomain {
		s.domains = append(s.domains, domain)
	}
	sort.Strings(s.domains)
	for _, domain := range s.domains {
		tp := byDomain[domain]
		tp.DestCountries = destCountriesOf(tp.ObservedFrom)
		pl, err := newPayload(tp)
		if err != nil {
			return nil, err
		}
		s.tracker[lowerASCII(domain)] = pl
	}
	if s.trackers, err = newPayload(TrackerListing{Count: len(s.domains), Domains: s.domains}); err != nil {
		return nil, err
	}

	// Flow matrices.
	countryFlows := analysis.Fig5CountryFlows(res)
	orgFlows := analysis.Fig8OrgFlows(res)
	if s.flows, err = newPayload(FlowsPayload{
		CountryFlows:   countryFlows,
		FlowShares:     analysis.Fig5FlowShares(countryFlows),
		DestShares:     analysis.Fig5DestShares(res),
		ContinentFlows: analysis.Fig6ContinentFlows(res, reg),
		OrgFlows:       orgFlows,
		OrgTotals:      analysis.OrgTotals(orgFlows),
	}); err != nil {
		return nil, err
	}

	// Figure payloads, in presentation order.
	ids := analysis.FigureIDs()
	for _, id := range ids {
		data, ok := analysis.Figure(id, res, reg, policies)
		if !ok {
			return nil, fmt.Errorf("serve: unknown figure id %q", id)
		}
		pl, err := newPayload(figureBody{ID: id, Data: data})
		if err != nil {
			return nil, err
		}
		s.figure[id] = pl
	}
	if s.figIndex, err = newPayload(FigureListing{Figures: ids}); err != nil {
		return nil, err
	}
	return s, nil
}

// buildCountryProfile assembles one /v1/countries/{cc} body.
func buildCountryProfile(cc string, cr *pipeline.CountryResult, reg *geo.Registry, comp analysis.Composition, prev analysis.Prevalence) CountryProfile {
	profile := CountryProfile{
		Code:           cc,
		City:           cr.City.ID(),
		TraceOrigin:    cr.TraceOrigin,
		Targets:        cr.Targets,
		OptOuts:        cr.OptOuts,
		LoadedOK:       cr.LoadedOK,
		LoadSuccessPct: stats.Percent(cr.LoadedOK, cr.Targets-cr.OptOuts),
		Composition:    comp,
		Prevalence:     prev,
		Funnel:         cr.Funnel,
		Traces:         cr.Traces,
		UniqueDomains:  len(cr.Verdicts),
	}
	if cont, ok := reg.ContinentOf(cc); ok {
		profile.Continent = string(cont)
	}
	destDomains := map[string]int{}
	orgDomains := map[string]int{}
	for _, obs := range cr.SortedDomains() {
		if obs.Class != geoloc.NonLocal || !obs.IsTracker {
			continue
		}
		profile.NonLocalTrackers = append(profile.NonLocalTrackers, obs)
		if obs.DestCountry != "" {
			destDomains[obs.DestCountry]++
		}
		org := obs.Org
		if org == "" {
			org = "(unknown)"
		}
		orgDomains[org]++
	}
	profile.Destinations = sortedCounts(destDomains, func(k string, n int) DestCount {
		return DestCount{Country: k, Domains: n}
	})
	profile.Organizations = sortedCounts(orgDomains, func(k string, n int) OrgCount {
		return OrgCount{Org: k, Domains: n}
	})
	return profile
}

// sortedCounts materializes a count map as rows sorted by descending
// count, then key — the fixed order every serving payload uses.
func sortedCounts[T any](m map[string]int, mk func(string, int) T) []T {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if m[keys[i]] != m[keys[j]] {
			return m[keys[i]] > m[keys[j]]
		}
		return keys[i] < keys[j]
	})
	out := make([]T, 0, len(keys))
	for _, k := range keys {
		out = append(out, mk(k, m[k]))
	}
	return out
}

// destCountriesOf extracts the sorted unique destination countries from a
// (country-sorted) observation list.
func destCountriesOf(obs []TrackerObservation) []string {
	seen := map[string]bool{}
	out := []string{}
	for _, o := range obs {
		if o.DestCountry != "" && !seen[o.DestCountry] {
			seen[o.DestCountry] = true
			out = append(out, o.DestCountry)
		}
	}
	sort.Strings(out)
	return out
}

// addFolded registers a payload under both letter-case spellings of a
// country code so the hot lookup path never allocates a folded copy.
func addFolded(m map[string]payload, key string, pl payload) {
	m[upperASCII(key)] = pl
	m[lowerASCII(key)] = pl
}

// --- Snapshot accessors ---

// Meta returns the snapshot's provenance label.
func (s *Snapshot) Meta() Meta { return s.meta }

// CountryCodes returns the served source countries, sorted.
func (s *Snapshot) CountryCodes() []string { return append([]string(nil), s.codes...) }

// TrackerDomains returns the served tracker domains, sorted.
func (s *Snapshot) TrackerDomains() []string { return append([]string(nil), s.domains...) }

// Endpoints enumerates every GET path the snapshot serves, sorted — the
// probe list for golden tests and the daemon's self-check.
func (s *Snapshot) Endpoints() []string {
	out := []string{"/v1/countries", "/v1/trackers", "/v1/flows", "/v1/figures"}
	for _, cc := range s.codes {
		out = append(out, "/v1/countries/"+lowerASCII(cc))
	}
	for _, domain := range s.domains {
		out = append(out, "/v1/trackers/"+domain)
	}
	for _, id := range analysis.FigureIDs() {
		out = append(out, "/v1/figures/"+id)
	}
	sort.Strings(out)
	return out
}

// Body resolves a request path to its precomputed response body through
// the same router the HTTP server uses. The returned slice is the
// snapshot's own buffer; callers must not mutate it.
func (s *Snapshot) Body(path string) ([]byte, bool) {
	ep, arg := route(path)
	pl, ok := s.payloadFor(ep, arg)
	if !ok {
		return nil, false
	}
	return pl.body, true
}

// payloadFor is the read path shared by the server and Body: endpoint +
// decoded argument → precomputed payload. Argument lookups are
// allocation-free when the argument arrives in a canonical case.
func (s *Snapshot) payloadFor(ep endpoint, arg string) (payload, bool) {
	switch ep {
	case epCountries:
		return s.countries, true
	case epCountry:
		if pl, ok := s.country[arg]; ok {
			return pl, true
		}
		pl, ok := s.country[upperASCII(arg)]
		return pl, ok
	case epTrackers:
		return s.trackers, true
	case epTracker:
		if pl, ok := s.tracker[arg]; ok {
			return pl, true
		}
		pl, ok := s.tracker[lowerASCII(arg)]
		return pl, ok
	case epFlows:
		return s.flows, true
	case epFigures:
		return s.figIndex, true
	case epFigure:
		pl, ok := s.figure[arg]
		return pl, ok
	default:
		return payload{}, false
	}
}

// validate is the pre-swap sanity gate: a snapshot must describe a
// non-empty corpus, carry both letter-case keys of every country (so
// either canonical spelling is an allocation-free hit), and resolve every
// path it enumerates. NewStore and Store.Install refuse (and keep the old
// snapshot serving) when this fails, which is what makes hot reloads safe
// against bad input.
func (s *Snapshot) validate() error {
	if s == nil {
		return fmt.Errorf("serve: nil snapshot")
	}
	if len(s.codes) == 0 {
		return fmt.Errorf("serve: snapshot has no countries")
	}
	for _, cc := range s.codes {
		for _, key := range []string{upperASCII(cc), lowerASCII(cc)} {
			if _, ok := s.country[key]; !ok {
				return fmt.Errorf("serve: snapshot missing country payload %s", key)
			}
		}
	}
	for _, path := range s.Endpoints() {
		if _, ok := s.Body(path); !ok {
			return fmt.Errorf("serve: snapshot cannot serve its own endpoint %s", path)
		}
	}
	for _, pl := range []payload{s.countries, s.trackers, s.flows, s.figIndex} {
		if len(pl.body) == 0 {
			return fmt.Errorf("serve: snapshot has an empty index payload")
		}
	}
	return nil
}
