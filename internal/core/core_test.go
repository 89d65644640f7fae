package core

import (
	"context"
	"fmt"
	"net/netip"
	"sync/atomic"
	"testing"

	"github.com/gamma-suite/gamma/internal/tracert"
)

// --- fake drivers ---

type fakeBrowser struct {
	loads atomic.Int64
	fail  map[string]string // domain -> fail reason
}

func (f *fakeBrowser) Load(_ context.Context, site string) (PageRecord, error) {
	f.loads.Add(1)
	if reason, bad := f.fail[site]; bad {
		return PageRecord{Site: site, FailReason: reason}, nil
	}
	return PageRecord{
		Site: site, URL: "https://" + site + "/", OK: true,
		Requests: []RequestRecord{
			{URL: "https://" + site + "/", Domain: site, Type: "document", Initiator: "document"},
			{URL: "https://static." + site + "/a.css", Domain: "static." + site, Type: "css", Initiator: "document"},
			{URL: "https://t.tracker.example/t.js", Domain: "t.tracker.example", Type: "script", Initiator: "document"},
			{URL: "https://t.tracker.example/t2.js", Domain: "t.tracker.example", Type: "script", Initiator: "document"},
			{URL: "https://blocked.example/x.js", Domain: "blocked.example", Type: "script", Initiator: "document", Blocked: true},
		},
	}, nil
}

type fakeResolver struct {
	addrs map[string]string
}

func (f *fakeResolver) Resolve(_ context.Context, domain string) (netip.Addr, error) {
	if a, ok := f.addrs[domain]; ok {
		return netip.MustParseAddr(a), nil
	}
	return netip.Addr{}, fmt.Errorf("NXDOMAIN %s", domain)
}

func (f *fakeResolver) Reverse(_ context.Context, addr netip.Addr) (string, bool) {
	if addr.String() == "20.0.0.9" {
		return "edge-par1.r.tracker.example", true
	}
	return "", false
}

type fakeProber struct{ count atomic.Int64 }

func (f *fakeProber) Traceroute(_ context.Context, dst netip.Addr) (tracert.Normalized, error) {
	f.count.Add(1)
	return tracert.Normalized{
		Target:  dst.String(),
		Reached: true,
		Hops: []tracert.NormHop{
			{Hop: 1, Addr: "10.0.0.1", RTTMs: []float64{4}},
			{Hop: 2, Addr: dst.String(), RTTMs: []float64{30}},
		},
	}, nil
}

func testEnv() (Env, *fakeBrowser, *fakeProber) {
	fb := &fakeBrowser{fail: map[string]string{"broken.example": "connection: load failed"}}
	fp := &fakeProber{}
	env := Env{
		Browser: fb,
		Resolver: &fakeResolver{addrs: map[string]string{
			"site-a.example":        "20.0.0.1",
			"static.site-a.example": "20.0.0.2",
			"site-b.example":        "20.0.0.3",
			"static.site-b.example": "20.0.0.4",
			"t.tracker.example":     "20.0.0.9",
		}},
		Prober: fp,
		Clock:  StudyClock(),
	}
	return env, fb, fp
}

func testConfig() Config {
	return Config{
		VolunteerID: "vol-test",
		Country:     "PK",
		City:        "Karachi, PK",
		VolunteerIP: "203.0.113.50",
		Targets: []Target{
			{Domain: "site-a.example", Kind: KindRegional},
			{Domain: "site-b.example", Kind: KindGovernment},
			{Domain: "broken.example", Kind: KindRegional},
			{Domain: "optout.example", Kind: KindRegional},
		},
		OptOutSites:       map[string]bool{"optout.example": true},
		TracerouteEnabled: true,
	}
}

// allBlockedBrowser loads pages whose every request the filter blocked.
type allBlockedBrowser struct{}

func (allBlockedBrowser) Load(_ context.Context, site string) (PageRecord, error) {
	return PageRecord{Site: site, OK: true, Requests: []RequestRecord{
		{URL: "https://" + site + "/", Domain: site, Type: "document", Blocked: true},
	}}, nil
}

// TestMeasureTargetSizing: measureTarget sizes its DNS and traceroute
// lists from the page's distinct unblocked domains, and an empty list
// stays nil, as the dataset's JSON (omitempty) would load it back.
func TestMeasureTargetSizing(t *testing.T) {
	ctx := context.Background()
	target := Target{Domain: "site-a.example", Kind: KindRegional}

	env, _, _ := testEnv()
	s, err := New(testConfig(), env)
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.measureTarget(ctx, target)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.DNS) != 3 || cap(p.DNS) != 3 {
		t.Errorf("DNS len %d cap %d, want 3 and 3 (three distinct unblocked domains)", len(p.DNS), cap(p.DNS))
	}
	if len(p.Traceroutes) != 3 || cap(p.Traceroutes) != 3 {
		t.Errorf("Traceroutes len %d cap %d, want 3 and 3", len(p.Traceroutes), cap(p.Traceroutes))
	}

	env.Resolver = &fakeResolver{} // every lookup is NXDOMAIN
	if s, err = New(testConfig(), env); err != nil {
		t.Fatal(err)
	}
	if p, err = s.measureTarget(ctx, target); err != nil {
		t.Fatal(err)
	}
	if len(p.DNS) != 3 || p.Traceroutes != nil {
		t.Errorf("all-NXDOMAIN page: %d DNS records, Traceroutes %#v; want 3 and nil", len(p.DNS), p.Traceroutes)
	}

	env.Browser = allBlockedBrowser{}
	if s, err = New(testConfig(), env); err != nil {
		t.Fatal(err)
	}
	if p, err = s.measureTarget(ctx, target); err != nil {
		t.Fatal(err)
	}
	if p.DNS != nil || p.Traceroutes != nil {
		t.Errorf("all-blocked page: DNS %#v, Traceroutes %#v; want nil and nil", p.DNS, p.Traceroutes)
	}
}

func TestRunFullPipeline(t *testing.T) {
	env, fb, fp := testEnv()
	s, err := New(testConfig(), env)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Pages) != 4 {
		t.Fatalf("pages = %d, want 4", len(ds.Pages))
	}
	if ds.LoadedOK() != 2 {
		t.Errorf("loaded OK = %d, want 2", ds.LoadedOK())
	}
	if fb.loads.Load() != 3 {
		t.Errorf("browser loads = %d, want 3 (opt-out skipped)", fb.loads.Load())
	}
	byDomain := map[string]PageResult{}
	for _, p := range ds.Pages {
		byDomain[p.Target.Domain] = p
	}
	a := byDomain["site-a.example"]
	if len(a.DNS) != 3 { // site, static, tracker (blocked excluded, dup deduped)
		t.Errorf("site-a DNS records = %d, want 3: %+v", len(a.DNS), a.DNS)
	}
	var trackerRec *DNSRecord
	for i := range a.DNS {
		if a.DNS[i].Domain == "t.tracker.example" {
			trackerRec = &a.DNS[i]
		}
	}
	if trackerRec == nil || trackerRec.RDNS != "edge-par1.r.tracker.example" {
		t.Errorf("tracker rDNS missing: %+v", trackerRec)
	}
	if len(a.Traceroutes) != 3 {
		t.Errorf("site-a traceroutes = %d, want 3 (one per resolved IP)", len(a.Traceroutes))
	}
	if fp.count.Load() != 6 { // 3 per OK page
		t.Errorf("total traceroutes = %d, want 6", fp.count.Load())
	}
	optout := byDomain["optout.example"]
	if !optout.OptedOut || optout.Load.OK {
		t.Error("opt-out target must be skipped")
	}
	broken := byDomain["broken.example"]
	if broken.Load.OK || len(broken.DNS) != 0 {
		t.Error("failed load must not produce DNS records")
	}
}

func TestTracerouteOptOut(t *testing.T) {
	env, _, fp := testEnv()
	cfg := testConfig()
	cfg.TracerouteEnabled = false
	s, err := New(cfg, env)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if fp.count.Load() != 0 {
		t.Error("prober must not run when traceroutes are disabled")
	}
	for _, p := range ds.Pages {
		if len(p.Traceroutes) != 0 {
			t.Error("dataset must carry no traceroutes when opted out")
		}
	}
}

func TestResumeSkipsCompleted(t *testing.T) {
	env, fb, _ := testEnv()
	s, err := New(testConfig(), env)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	before := fb.loads.Load()
	if err := s.Resume(context.Background(), ds); err != nil {
		t.Fatal(err)
	}
	if fb.loads.Load() != before {
		t.Error("resume over a complete dataset must do no work")
	}
	if len(ds.Pages) != 4 {
		t.Errorf("resume must not duplicate pages: %d", len(ds.Pages))
	}
	// Partial dataset: drop two results and resume.
	ds.Pages = ds.Pages[:2]
	if err := s.Resume(context.Background(), ds); err != nil {
		t.Fatal(err)
	}
	if len(ds.Pages) != 4 {
		t.Errorf("resume must complete the remaining targets: %d", len(ds.Pages))
	}
}

func TestConfigValidation(t *testing.T) {
	env, _, _ := testEnv()
	if _, err := New(Config{}, env); err == nil {
		t.Error("empty config must fail")
	}
	cfg := testConfig()
	cfg.VolunteerID = ""
	if _, err := New(cfg, env); err == nil {
		t.Error("missing volunteer ID must fail")
	}
	cfg = testConfig()
	env2 := env
	env2.Browser = nil
	if _, err := New(cfg, env2); err == nil {
		t.Error("missing browser must fail")
	}
	env3 := env
	env3.Prober = nil
	if _, err := New(cfg, env3); err == nil {
		t.Error("traceroutes enabled without prober must fail")
	}
	cfg.TracerouteEnabled = false
	if _, err := New(cfg, env3); err != nil {
		t.Errorf("prober optional when traceroutes disabled: %v", err)
	}
}

func TestAnonymize(t *testing.T) {
	env, _, _ := testEnv()
	s, _ := New(testConfig(), env)
	ds, _ := s.Run(context.Background())
	if ds.VolunteerIP == "" {
		t.Fatal("dataset should carry volunteer IP before anonymization")
	}
	ds.Anonymize()
	if ds.VolunteerIP != "" || !ds.Anonymized {
		t.Error("Anonymize must blank the IP and set the flag")
	}
}

func TestContextCancellation(t *testing.T) {
	env, _, _ := testEnv()
	s, _ := New(testConfig(), env)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Run(ctx); err == nil {
		t.Error("cancelled context should surface an error")
	}
}
