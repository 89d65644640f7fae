package geoloc

import (
	"net/netip"
	"testing"

	"github.com/gamma-suite/gamma/internal/atlas"
	"github.com/gamma-suite/gamma/internal/geo"
	"github.com/gamma-suite/gamma/internal/geodb"
	"github.com/gamma-suite/gamma/internal/netsim"
	"github.com/gamma-suite/gamma/internal/tracert"
)

// fixture builds a small world: a volunteer in Karachi, hosts in Paris,
// Karachi and Dubai, a probe mesh, and a perfect-then-corrupted IPmap.
type fixture struct {
	net       *netsim.Network
	reg       *geo.Registry
	mesh      *atlas.Mesh
	ipmap     *geodb.DB
	ref       *geodb.RefTable
	fw        *Framework
	volCity   geo.City
	parisHost netsim.Host
	localHost netsim.Host
	dubaiHost netsim.Host
	vantage   netsim.Vantage
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	f := &fixture{reg: geo.Default()}
	// Constraint logic is under test here, not packet loss: keep traces
	// lossless so every verdict is attributable to a constraint.
	cfg := netsim.DefaultConfig(99)
	cfg.TraceLossProb = 0
	f.net = netsim.New(cfg)
	if err := f.net.AddAS(netsim.AS{Number: 10, Name: "x", Org: "x", Country: "FR"}); err != nil {
		t.Fatal(err)
	}
	city := func(id string) geo.City {
		c, ok := f.reg.City(id)
		if !ok {
			t.Fatalf("city %s missing", id)
		}
		return c
	}
	f.volCity = city("Karachi, PK")
	var err error
	if f.parisHost, err = f.net.AddHost(netsim.Host{City: city("Paris, FR"), ASN: 10, Responsive: true}); err != nil {
		t.Fatal(err)
	}
	if f.localHost, err = f.net.AddHost(netsim.Host{City: f.volCity, ASN: 10, Responsive: true}); err != nil {
		t.Fatal(err)
	}
	if f.dubaiHost, err = f.net.AddHost(netsim.Host{City: city("Dubai, AE"), ASN: 10, Responsive: true}); err != nil {
		t.Fatal(err)
	}
	if f.vantage, err = f.net.AddVantage(netsim.Vantage{ID: "vol-pk", City: f.volCity, ASN: 10, AccessDelayMs: 8}); err != nil {
		t.Fatal(err)
	}
	if f.mesh, err = atlas.BuildMesh(f.net, f.reg, atlas.DefaultMeshConfig(99)); err != nil {
		t.Fatal(err)
	}
	// Perfect IPmap to start; tests corrupt entries as needed.
	f.ipmap = geodb.Build("ipmap", f.net, f.reg, geodb.BuildConfig{Seed: 1, Coverage: 1})
	f.ref = geodb.DefaultRefTables(f.net.BaseRTTMs, 99)
	f.fw = New(DefaultConfig(), f.ipmap, f.ref, f.mesh, f.reg)
	return f
}

// trace launches a real simulated traceroute and normalizes it, retrying
// hosts until one is reached (loss is ~6%).
func (f *fixture) trace(t *testing.T, dst netip.Addr) *tracert.Normalized {
	t.Helper()
	res, err := f.net.Traceroute(f.vantage.ID, dst)
	if err != nil {
		t.Fatal(err)
	}
	n := tracert.FromResult(res)
	return &n
}

func (f *fixture) reachedTrace(t *testing.T, dst netip.Addr) *tracert.Normalized {
	t.Helper()
	n := f.trace(t, dst)
	if !n.Reached {
		t.Skip("simulated trace lost; covered by other seeds")
	}
	return n
}

func TestLocalClassification(t *testing.T) {
	f := newFixture(t)
	v := f.fw.Classify("PK", f.volCity, Candidate{Domain: "local.pk", Addr: f.localHost.Addr})
	if v.Class != Local {
		t.Errorf("class = %v (%v), want local", v.Class, v.Stage)
	}
}

func TestNonLocalRetained(t *testing.T) {
	f := newFixture(t)
	v := f.fw.Classify("PK", f.volCity, Candidate{
		Domain: "tracker.fr",
		Addr:   f.parisHost.Addr,
		Trace:  f.reachedTrace(t, f.parisHost.Addr),
	})
	if v.Class != NonLocal {
		t.Fatalf("class = %v, stage %v, want non-local", v.Class, v.Stage)
	}
	if v.DestCountry != "FR" || v.DestCity != "Paris, FR" {
		t.Errorf("dest = %s / %s", v.DestCountry, v.DestCity)
	}
	if v.SourceLatencyMs <= 0 {
		t.Error("source latency should be recorded")
	}
}

func TestNoGeolocationDiscard(t *testing.T) {
	f := newFixture(t)
	v := f.fw.Classify("PK", f.volCity, Candidate{Domain: "x", Addr: netip.MustParseAddr("203.0.113.1")})
	if v.Class != Discarded || v.Stage != StageNoGeolocation {
		t.Errorf("verdict = %+v", v)
	}
	v = f.fw.Classify("PK", f.volCity, Candidate{Domain: "x"})
	if v.Stage != StageInvalidAddress {
		t.Errorf("invalid addr stage = %v", v.Stage)
	}
}

func TestSourceTraceMissingOrUnreached(t *testing.T) {
	f := newFixture(t)
	v := f.fw.Classify("PK", f.volCity, Candidate{Domain: "t.fr", Addr: f.parisHost.Addr})
	if v.Stage != StageSourceMissing {
		t.Errorf("stage = %v, want source-trace-missing", v.Stage)
	}
	unreached := &tracert.Normalized{Target: f.parisHost.Addr.String(), Reached: false}
	v = f.fw.Classify("PK", f.volCity, Candidate{Domain: "t.fr", Addr: f.parisHost.Addr, Trace: unreached})
	if v.Stage != StageSourceUnreach {
		t.Errorf("stage = %v, want source-trace-unreached", v.Stage)
	}
}

func TestSourceSOLCatchesFarClaims(t *testing.T) {
	// IPmap wrongly claims a LOCAL (Karachi) host is in Paris. The
	// volunteer's observed latency to it is a few ms — physically
	// impossible for Karachi->Paris — so the claim must be discarded.
	f := newFixture(t)
	paris, _ := f.reg.City("Paris, FR")
	f.ipmap.Set(f.localHost.Addr, paris)
	v := f.fw.Classify("PK", f.volCity, Candidate{
		Domain: "fake-foreign.pk",
		Addr:   f.localHost.Addr,
		Trace:  f.reachedTrace(t, f.localHost.Addr),
	})
	if v.Class != Discarded {
		t.Fatalf("class = %v, want discarded", v.Class)
	}
	if v.Stage != StageSourceSOL && v.Stage != StageSourceLatency {
		t.Errorf("stage = %v, want a source-side discard", v.Stage)
	}
}

func TestDestinationConstraintCatchesNearClaims(t *testing.T) {
	// IPmap claims a Paris host is in Dubai (nearer to the volunteer than
	// the truth). The source constraints cannot catch this — the observed
	// latency is larger, not smaller, than the claim implies — but the
	// destination probe in the UAE sees an RTT far too large for a server
	// inside the UAE.
	f := newFixture(t)
	dubai, _ := f.reg.City("Dubai, AE")
	f.ipmap.Set(f.parisHost.Addr, dubai)
	v := f.fw.Classify("PK", f.volCity, Candidate{
		Domain: "claimed-dubai.example",
		Addr:   f.parisHost.Addr,
		Trace:  f.reachedTrace(t, f.parisHost.Addr),
	})
	if v.Class != Discarded {
		t.Fatalf("class = %v (dest %s), want discarded", v.Class, v.DestCountry)
	}
	if v.Stage != StageDestTooFar && v.Stage != StageDestUnreach && v.Stage != StageDestSOL {
		t.Errorf("stage = %v, want a destination-side discard", v.Stage)
	}
}

func TestRDNSConflictDiscard(t *testing.T) {
	// IPmap claims Dubai for a host whose PTR betrays Paris: the §4.1.3
	// case (Google edges claimed in Al Fujairah, rDNS saying Amsterdam).
	f := newFixture(t)
	paris, _ := f.reg.City("Paris, FR")
	// Claim a country near enough that destination checks can pass is
	// hard to fabricate; instead claim the TRUE city so source+dest pass,
	// then use a conflicting PTR from another country.
	v := f.fw.Classify("PK", f.volCity, Candidate{
		Domain: "t.example",
		Addr:   f.parisHost.Addr,
		RDNS:   geodb.HintHostname(mustCity(t, f.reg, "Amsterdam, NL"), "t.example", 1),
		Trace:  f.reachedTrace(t, f.parisHost.Addr),
	})
	if v.Class != Discarded || v.Stage != StageRDNSConflict {
		t.Errorf("verdict = %+v, want rdns-conflict", v)
	}
	// A PTR agreeing with the claim is retained.
	v = f.fw.Classify("PK", f.volCity, Candidate{
		Domain: "t.example",
		Addr:   f.parisHost.Addr,
		RDNS:   geodb.HintHostname(paris, "t.example", 1),
		Trace:  f.reachedTrace(t, f.parisHost.Addr),
	})
	if v.Class != NonLocal {
		t.Errorf("agreeing PTR should be retained: %+v", v)
	}
	// A PTR with no hint is retained too.
	v = f.fw.Classify("PK", f.volCity, Candidate{
		Domain: "t.example",
		Addr:   f.parisHost.Addr,
		RDNS:   geodb.OpaqueHostname("t.example", 42),
		Trace:  f.reachedTrace(t, f.parisHost.Addr),
	})
	if v.Class != NonLocal {
		t.Errorf("hintless PTR should be retained: %+v", v)
	}
}

func mustCity(t *testing.T, reg *geo.Registry, id string) geo.City {
	t.Helper()
	c, ok := reg.City(id)
	if !ok {
		t.Fatalf("city %s missing", id)
	}
	return c
}

func TestCleanLatency(t *testing.T) {
	tr := tracert.Normalized{
		Target:  "1.2.3.4",
		Reached: true,
		Hops: []tracert.NormHop{
			{Hop: 1, Addr: "10.0.0.1", RTTMs: []float64{8}},
			{Hop: 2, Addr: "1.2.3.4", RTTMs: []float64{50}},
		},
	}
	if got := CleanLatency(tr); got != 42 {
		t.Errorf("CleanLatency = %v, want 42 (last minus first)", got)
	}
	// First hop missing: raw last hop.
	tr.Hops[0] = tracert.NormHop{Hop: 1}
	if got := CleanLatency(tr); got != 50 {
		t.Errorf("CleanLatency = %v, want 50", got)
	}
	// First hop larger than last (reordering noise): raw last hop.
	tr.Hops[0] = tracert.NormHop{Hop: 1, Addr: "10.0.0.1", RTTMs: []float64{60}}
	if got := CleanLatency(tr); got != 50 {
		t.Errorf("CleanLatency = %v, want 50", got)
	}
}

// TestResultLatencyMatchesCleanLatency: the destination constraint reads
// its latency straight off the simulator result; it must equal the
// normalize-then-clean path it replaced, on every trace shape.
func TestResultLatencyMatchesCleanLatency(t *testing.T) {
	a := netip.MustParseAddr("198.18.0.1")
	dst := netip.MustParseAddr("20.0.0.7")
	silent := func(i int) netsim.Hop { return netsim.Hop{Index: i} }
	hop := func(i int, at netip.Addr, rtts ...float64) netsim.Hop {
		return netsim.Hop{Index: i, Addr: at, Responded: true, RTTMs: rtts}
	}
	cases := []struct {
		name string
		res  netsim.TraceResult
	}{
		{"reached", netsim.TraceResult{Dst: dst, Reached: true, Hops: []netsim.Hop{
			hop(1, a, 4.1, 3.9, 4.5), silent(2), hop(3, dst, 22.7, 23.1, 22.9)}}},
		{"unreached", netsim.TraceResult{Dst: dst, Hops: []netsim.Hop{
			hop(1, a, 4.1, 3.9, 4.5), silent(2), silent(3)}}},
		{"unreached with answering hops", netsim.TraceResult{Dst: dst, Hops: []netsim.Hop{
			hop(1, a, 4.1), hop(2, a, 9.5)}}},
		{"silent first hops", netsim.TraceResult{Dst: dst, Reached: true, Hops: []netsim.Hop{
			silent(1), silent(2), hop(3, a, 7.5, 7.2), hop(4, dst, 30, 29.5, 31)}}},
		{"responded without samples", netsim.TraceResult{Dst: dst, Reached: true, Hops: []netsim.Hop{
			hop(1, a), hop(2, a, 5), hop(3, dst, 40), hop(4, dst)}}},
		{"samples on a silent hop", netsim.TraceResult{Dst: dst, Reached: true, Hops: []netsim.Hop{
			{Index: 1, RTTMs: []float64{2}}, hop(2, dst, 12)}}},
		{"first hop slower than last", netsim.TraceResult{Dst: dst, Reached: true, Hops: []netsim.Hop{
			hop(1, a, 60), hop(2, dst, 50)}}},
		{"single hop", netsim.TraceResult{Dst: dst, Reached: true, Hops: []netsim.Hop{hop(1, dst, 3, 2)}}},
		{"no hops", netsim.TraceResult{Dst: dst, Reached: true}},
		{"all silent", netsim.TraceResult{Dst: dst, Reached: true, Hops: []netsim.Hop{silent(1), silent(2)}}},
	}
	for _, tc := range cases {
		want := CleanLatency(tracert.FromResult(tc.res))
		if got := resultLatency(tc.res); got != want {
			t.Errorf("%s: resultLatency = %v, CleanLatency(FromResult) = %v", tc.name, got, want)
		}
	}
}

func TestDestinationCacheReusesResults(t *testing.T) {
	f := newFixture(t)
	tr := f.reachedTrace(t, f.parisHost.Addr)
	v1 := f.fw.Classify("PK", f.volCity, Candidate{Domain: "a.example", Addr: f.parisHost.Addr, Trace: tr})
	v2 := f.fw.Classify("PK", f.volCity, Candidate{Domain: "b.example", Addr: f.parisHost.Addr, Trace: tr})
	if v1.Class != v2.Class || v1.Stage != v2.Stage {
		t.Error("cached destination verdicts must agree")
	}
}

func TestTally(t *testing.T) {
	vs := []Verdict{
		{Class: Local},
		{Class: NonLocal},
		{Class: NonLocal},
		{Class: Discarded, Stage: StageSourceSOL},
		{Class: Discarded, Stage: StageRDNSConflict},
	}
	got := Tally(vs)
	if got.Total != 5 || got.Local != 1 || got.NonLocal != 2 || got.Discarded != 2 {
		t.Errorf("tally = %+v", got)
	}
	if got.ByStage[StageSourceSOL] != 1 || got.ByStage[StageRDNSConflict] != 1 {
		t.Errorf("stages = %+v", got.ByStage)
	}
}

func TestNilMeshDiscardsAtDestination(t *testing.T) {
	f := newFixture(t)
	fw := New(DefaultConfig(), f.ipmap, f.ref, nil, f.reg)
	v := fw.Classify("PK", f.volCity, Candidate{
		Domain: "t.fr",
		Addr:   f.parisHost.Addr,
		Trace:  f.reachedTrace(t, f.parisHost.Addr),
	})
	if v.Stage != StageDestNoProbe {
		t.Errorf("stage = %v, want destination-no-probe", v.Stage)
	}
}
