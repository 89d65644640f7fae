package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/netip"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/gamma-suite/gamma/internal/sched"
	"github.com/gamma-suite/gamma/internal/tracert"
)

// faultOnce injects one Fault the first time its key is called,
// modelling a transient infrastructure failure on one driver call.
type faultOnce struct {
	key   string
	fired atomic.Bool
}

func (f *faultOnce) hit(key string) error {
	if key != f.key || f.fired.Swap(true) {
		return nil
	}
	return Fault(fmt.Errorf("injected: connection reset (%s)", key))
}

type faultOnceBrowser struct {
	faultOnce
	inner Browser
}

func (b *faultOnceBrowser) Load(ctx context.Context, site string) (PageRecord, error) {
	if err := b.hit(site); err != nil {
		return PageRecord{}, err
	}
	return b.inner.Load(ctx, site)
}

type faultOnceResolver struct {
	faultOnce
	inner Resolver
}

func (r *faultOnceResolver) Resolve(ctx context.Context, domain string) (netip.Addr, error) {
	if err := r.hit(domain); err != nil {
		return netip.Addr{}, err
	}
	return r.inner.Resolve(ctx, domain)
}

func (r *faultOnceResolver) Reverse(ctx context.Context, addr netip.Addr) (string, bool) {
	return r.inner.Reverse(ctx, addr)
}

type faultOnceProber struct {
	faultOnce
	inner Prober
}

func (p *faultOnceProber) Traceroute(ctx context.Context, dst netip.Addr) (tracert.Normalized, error) {
	if err := p.hit(dst.String()); err != nil {
		return tracert.Normalized{}, err
	}
	return p.inner.Traceroute(ctx, dst)
}

func datasetJSON(t *testing.T, ds *Dataset) []byte {
	t.Helper()
	b, err := json.Marshal(ds)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestFaultMarkerTransparent(t *testing.T) {
	base := fmt.Errorf("connection reset")
	f := Fault(base)
	if f.Error() != base.Error() {
		t.Errorf("Fault must not change error text: %q", f.Error())
	}
	if !IsFault(f) || IsFault(base) {
		t.Error("IsFault misclassifies")
	}
	if !errors.Is(f, base) {
		t.Error("Fault must preserve the error chain")
	}
	if Fault(nil) != nil {
		t.Error("Fault(nil) must be nil")
	}
}

// cancelOnSecondLoad cancels the run's context as its second page load
// starts, as a volunteer does who closes the tool mid-run; the load then
// fails with the cancellation, like a browser session torn down mid-page.
type cancelOnSecondLoad struct {
	inner  Browser
	cancel context.CancelFunc
	loads  int
}

func (b *cancelOnSecondLoad) Load(ctx context.Context, site string) (PageRecord, error) {
	if b.loads++; b.loads == 2 {
		b.cancel()
		return PageRecord{}, ctx.Err()
	}
	return b.inner.Load(ctx, site)
}

// TestCancelMidRunKeepsPrefix: a run cancelled during its second target
// reports the cancellation, keeps exactly the first page, and a later
// Resume with a live context reproduces the uninterrupted dataset.
func TestCancelMidRunKeepsPrefix(t *testing.T) {
	env, _, _ := testEnv()
	s, err := New(testConfig(), env)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	env, _, _ = testEnv()
	env.Browser = &cancelOnSecondLoad{inner: env.Browser, cancel: cancel}
	s, err = New(testConfig(), env)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := s.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("a cancelled run must report context.Canceled: %v", err)
	}
	if len(ds.Pages) != 1 || ds.Pages[0].Target.Domain != "site-a.example" {
		t.Fatalf("pages = %+v, want only the first target", ds.Pages)
	}
	if err := s.Resume(context.Background(), ds); err != nil {
		t.Fatal(err)
	}
	if string(datasetJSON(t, ds)) != string(datasetJSON(t, want)) {
		t.Error("resuming after a cancellation must reproduce the uninterrupted dataset")
	}
}

// TestDriverFaultFailsTargetOnSingleAttempt pins the suite's side of the
// one retry layer: a faulted driver call fails its target at once, the
// fault is never recorded, the pages before it are kept, and a Resume
// re-measures from the failed target to the fault-free dataset.
func TestDriverFaultFailsTargetOnSingleAttempt(t *testing.T) {
	env, _, _ := testEnv()
	s, err := New(testConfig(), env)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Every fault lands on site-b.example, the second target.
	cases := []struct {
		driver string
		inject func(*Env)
	}{
		{"browser", func(e *Env) { e.Browser = &faultOnceBrowser{faultOnce{key: "site-b.example"}, e.Browser} }},
		{"resolver", func(e *Env) { e.Resolver = &faultOnceResolver{faultOnce{key: "static.site-b.example"}, e.Resolver} }},
		{"prober", func(e *Env) { e.Prober = &faultOnceProber{faultOnce{key: "20.0.0.4"}, e.Prober} }},
	}
	for _, tc := range cases {
		t.Run(tc.driver, func(t *testing.T) {
			env, _, _ := testEnv()
			tc.inject(&env)
			s, err := New(testConfig(), env)
			if err != nil {
				t.Fatal(err)
			}
			ds, err := s.Run(context.Background())
			if err == nil || !strings.Contains(err.Error(), "site-b.example") || !strings.Contains(err.Error(), tc.driver) {
				t.Fatalf("a faulted %s call must fail site-b.example: %v", tc.driver, err)
			}
			if !IsFault(err) {
				t.Errorf("the target error must keep the fault marker: %v", err)
			}
			if got := string(datasetJSON(t, ds)); strings.Contains(got, "injected") {
				t.Error("the fault was recorded as data")
			}
			if len(ds.Pages) != 1 || ds.Pages[0].Target.Domain != "site-a.example" {
				t.Fatalf("pages = %+v, want only the page before the fault", ds.Pages)
			}
			if err := s.Resume(context.Background(), ds); err != nil {
				t.Fatal(err)
			}
			if string(datasetJSON(t, ds)) != string(datasetJSON(t, want)) {
				t.Error("resuming past the fault must reproduce the fault-free dataset")
			}
		})
	}
}

// cancelledResolver answers every lookup with the context's cancellation,
// as a field resolver does when its attempt is abandoned.
type cancelledResolver struct{ Resolver }

func (cancelledResolver) Resolve(context.Context, string) (netip.Addr, error) {
	return netip.Addr{}, fmt.Errorf("lookup: %w", context.Canceled)
}

func TestCancelledLookupNotRecorded(t *testing.T) {
	env, _, _ := testEnv()
	env.Resolver = cancelledResolver{env.Resolver}
	s, err := New(testConfig(), env)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := s.Run(context.Background())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("a cancelled lookup must abort the run: %v", err)
	}
	if len(ds.Pages) != 0 {
		t.Errorf("a cancelled lookup was recorded: %+v", ds.Pages)
	}
}

func TestDriverFaultExhaustionFailsTarget(t *testing.T) {
	env, _, _ := testEnv()
	b := &alwaysFaultBrowser{}
	env.Browser = b
	s, err := New(testConfig(), env)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := s.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "browser") {
		t.Fatalf("a persistent driver fault must fail the run: %v", err)
	}
	if n := b.loads.Load(); n != 1 {
		t.Errorf("browser loaded %d times, want one attempt", n)
	}
	if len(ds.Pages) != 0 {
		t.Errorf("pages = %d, want none", len(ds.Pages))
	}
}

type alwaysFaultBrowser struct{ loads atomic.Int64 }

func (b *alwaysFaultBrowser) Load(context.Context, string) (PageRecord, error) {
	b.loads.Add(1)
	return PageRecord{}, Fault(fmt.Errorf("injected: network down"))
}

// countingResolver counts Resolve calls per domain on top of fakeResolver.
type countingResolver struct {
	inner Resolver
	mu    sync.Mutex
	calls map[string]int
}

func (r *countingResolver) Resolve(ctx context.Context, domain string) (netip.Addr, error) {
	r.mu.Lock()
	if r.calls == nil {
		r.calls = map[string]int{}
	}
	r.calls[domain]++
	r.mu.Unlock()
	return r.inner.Resolve(ctx, domain)
}

func (r *countingResolver) Reverse(ctx context.Context, addr netip.Addr) (string, bool) {
	return r.inner.Reverse(ctx, addr)
}

func TestNXDOMAINRecordedNotRetried(t *testing.T) {
	env, _, _ := testEnv()
	// Drop static.site-a.example so its lookup is a definitive NXDOMAIN.
	cr := &countingResolver{inner: &fakeResolver{addrs: map[string]string{
		"site-a.example":        "20.0.0.1",
		"site-b.example":        "20.0.0.3",
		"static.site-b.example": "20.0.0.4",
		"t.tracker.example":     "20.0.0.9",
	}}}
	env.Resolver = cr
	s, err := New(testConfig(), env)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// static.site-a.example is unknown to the fake resolver: a definitive
	// NXDOMAIN is data, so it must be resolved once and recorded.
	if n := cr.calls["static.site-a.example"]; n != 1 {
		t.Errorf("NXDOMAIN resolved %d times, want 1", n)
	}
	var rec *DNSRecord
	for _, p := range ds.Pages {
		for i := range p.DNS {
			if p.DNS[i].Domain == "static.site-a.example" {
				rec = &p.DNS[i]
			}
		}
	}
	if rec == nil || !strings.Contains(rec.Err, "NXDOMAIN") {
		t.Errorf("NXDOMAIN must be recorded as data: %+v", rec)
	}
}

func TestResumeRejectsForeignDataset(t *testing.T) {
	env, _, _ := testEnv()
	s, err := New(testConfig(), env)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ds.Pages = ds.Pages[:2]
	before := string(datasetJSON(t, ds))

	// Same volunteer, another target list: a world built from another
	// seed selects other sites for the same country.
	reordered := testConfig()
	reordered.Targets[0], reordered.Targets[1] = reordered.Targets[1], reordered.Targets[0]
	shorter := testConfig()
	shorter.Targets = shorter.Targets[:1]
	otherVolunteer := testConfig()
	otherVolunteer.VolunteerID = "vol-other"
	otherCountry := testConfig()
	otherCountry.Country = "AE"
	for name, tc := range map[string]struct {
		cfg  Config
		want string
	}{
		"reordered targets": {reordered, "site-a.example"},
		"fewer targets":     {shorter, "site-b.example"},
		"other volunteer":   {otherVolunteer, "vol-test"},
		"other country":     {otherCountry, "PK"},
	} {
		t.Run(name, func(t *testing.T) {
			env, fb, _ := testEnv()
			s, err := New(tc.cfg, env)
			if err != nil {
				t.Fatal(err)
			}
			err = s.Resume(context.Background(), ds)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("resume must name %s: %v", tc.want, err)
			}
			if !sched.IsPermanent(err) {
				t.Errorf("no retry can fix a foreign dataset; the error must be permanent: %v", err)
			}
			if fb.loads.Load() != 0 {
				t.Error("a rejected resume must measure nothing")
			}
			if string(datasetJSON(t, ds)) != before {
				t.Error("a rejected resume must leave the dataset untouched")
			}
		})
	}
}

func TestResumeLimitRejectsNegative(t *testing.T) {
	env, fb, _ := testEnv()
	s, err := New(testConfig(), env)
	if err != nil {
		t.Fatal(err)
	}
	ds := s.NewDataset()
	err = s.ResumeLimit(context.Background(), ds, -3)
	if err == nil || !strings.Contains(err.Error(), "limit") || !strings.Contains(err.Error(), "-3") {
		t.Fatalf("a negative limit must be rejected, naming the field and value: %v", err)
	}
	if fb.loads.Load() != 0 || len(ds.Pages) != 0 {
		t.Error("a rejected limit must measure nothing")
	}
}
