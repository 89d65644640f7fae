package gamma_test

import (
	"context"
	"fmt"
	"net/netip"
	"strconv"
	"sync"
	"testing"

	"github.com/gamma-suite/gamma/internal/core"
	"github.com/gamma-suite/gamma/internal/rng"
	"github.com/gamma-suite/gamma/internal/tracert"
)

// Deterministic transient-fault injection for campaign tests. The
// decorators wrap a volunteer's drivers through StudyOptions.EnvHook and
// fail calls with core.Fault, which the suite never records: a failed
// target ends the volunteer's attempt, and the campaign's volunteer retry
// resumes from it.

// faultSource draws deterministic transient failures. Each (kind, key)
// pair carries its own call counter, and every draw is keyed by
// (seed, scope, kind, key, call#) — so a flaky operation fails on a
// reproducible subset of its calls but never forever (for rates < 1 a
// retried call eventually draws success), and two runs with the same seed
// inject the exact same fault pattern.
type faultSource struct {
	seed  uint64
	scope string
	rate  float64

	mu    sync.Mutex
	calls map[string]int
	drawn int
	fired int
}

func newFaultSource(seed uint64, scope string, rate float64) *faultSource {
	return &faultSource{seed: seed, scope: scope, rate: rate, calls: make(map[string]int)}
}

// draw returns a transient fault error for this call, or nil.
func (f *faultSource) draw(kind, key string) error {
	f.mu.Lock()
	ck := kind + "\x00" + key
	n := f.calls[ck]
	f.calls[ck] = n + 1
	f.drawn++
	f.mu.Unlock()
	r := rng.New(f.seed, "sched-fault", f.scope, kind, key, strconv.Itoa(n))
	if !rng.Bernoulli(r, f.rate) {
		return nil
	}
	f.mu.Lock()
	f.fired++
	f.mu.Unlock()
	return core.Fault(fmt.Errorf("injected transient %s fault (%s, call %d)", kind, key, n))
}

func (f *faultSource) counts() (drawn, fired int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.drawn, f.fired
}

// flakyBrowser fails each Load with the source's probability. Because the
// simulated drivers are stateless per call, a retried load returns exactly
// the record the fault-free run would have.
type flakyBrowser struct {
	inner core.Browser
	f     *faultSource
}

func (b *flakyBrowser) Load(ctx context.Context, site string) (core.PageRecord, error) {
	if err := b.f.draw("browser", site); err != nil {
		return core.PageRecord{}, err
	}
	return b.inner.Load(ctx, site)
}

// flakyResolver fails each forward resolution with the source's
// probability. Reverse lookups are never faulted: the Resolver interface
// gives them no error channel, so an injected failure would silently alter
// recorded data instead of failing the target.
type flakyResolver struct {
	inner core.Resolver
	f     *faultSource
}

// flakyChainResolver additionally forwards the ChainResolver capability.
// Wrapping must not hide it: the suite records CNAME chains only when the
// capability is present, and losing it would change dataset bytes.
type flakyChainResolver struct {
	*flakyResolver
	chain core.ChainResolver
}

// newFlakyResolver decorates inner, preserving its optional ChainResolver
// capability.
func newFlakyResolver(inner core.Resolver, f *faultSource) core.Resolver {
	fr := &flakyResolver{inner: inner, f: f}
	if cr, ok := inner.(core.ChainResolver); ok {
		return &flakyChainResolver{flakyResolver: fr, chain: cr}
	}
	return fr
}

func (r *flakyResolver) Resolve(ctx context.Context, domain string) (netip.Addr, error) {
	if err := r.f.draw("resolver", domain); err != nil {
		return netip.Addr{}, err
	}
	return r.inner.Resolve(ctx, domain)
}

func (r *flakyResolver) Reverse(ctx context.Context, addr netip.Addr) (string, bool) {
	return r.inner.Reverse(ctx, addr)
}

// ResolveChain shares the per-domain fault stream with Resolve.
func (r *flakyChainResolver) ResolveChain(ctx context.Context, domain string) (netip.Addr, []string, error) {
	if err := r.f.draw("resolver", domain); err != nil {
		return netip.Addr{}, nil, err
	}
	return r.chain.ResolveChain(ctx, domain)
}

// flakyProber fails each traceroute launch with the source's probability.
type flakyProber struct {
	inner core.Prober
	f     *faultSource
}

func (p *flakyProber) Traceroute(ctx context.Context, dst netip.Addr) (tracert.Normalized, error) {
	if err := p.f.draw("prober", dst.String()); err != nil {
		return tracert.Normalized{}, err
	}
	return p.inner.Traceroute(ctx, dst)
}

// faultyHook is a StudyOptions.EnvHook that wraps every volunteer's
// drivers in the flaky decorators at rate. Each volunteer draws from its
// own seed-keyed stream, so fault patterns reproduce exactly.
func faultyHook(seed uint64, rate float64) func(string, core.Env) core.Env {
	return func(cc string, env core.Env) core.Env {
		f := newFaultSource(seed, "volunteer/"+cc, rate)
		env.Browser = &flakyBrowser{inner: env.Browser, f: f}
		env.Resolver = newFlakyResolver(env.Resolver, f)
		if env.Prober != nil {
			env.Prober = &flakyProber{inner: env.Prober, f: f}
		}
		return env
	}
}

// --- the decorators' own contract ---

type stubBrowser struct{}

func (stubBrowser) Load(_ context.Context, site string) (core.PageRecord, error) {
	return core.PageRecord{Site: site}, nil
}

type stubResolver struct{}

func (stubResolver) Resolve(context.Context, string) (netip.Addr, error) {
	return netip.MustParseAddr("192.0.2.1"), nil
}

func (stubResolver) Reverse(context.Context, netip.Addr) (string, bool) { return "cdn.test", true }

// stubChainResolver adds the optional ChainResolver capability.
type stubChainResolver struct{ stubResolver }

func (stubChainResolver) ResolveChain(context.Context, string) (netip.Addr, []string, error) {
	return netip.MustParseAddr("192.0.2.1"), []string{"a.test", "b.test"}, nil
}

type stubProber struct{}

func (stubProber) Traceroute(_ context.Context, dst netip.Addr) (tracert.Normalized, error) {
	return tracert.Normalized{Target: dst.String()}, nil
}

func TestFlakyBrowserRateZeroAndOne(t *testing.T) {
	ctx := context.Background()
	never := &flakyBrowser{inner: stubBrowser{}, f: newFaultSource(1, "v/US", 0)}
	for i := 0; i < 10; i++ {
		if _, err := never.Load(ctx, "site.test"); err != nil {
			t.Fatalf("rate 0 faulted: %v", err)
		}
	}
	always := &flakyBrowser{inner: stubBrowser{}, f: newFaultSource(1, "v/US", 1)}
	_, err := always.Load(ctx, "site.test")
	if err == nil {
		t.Fatal("rate 1 must fault")
	}
	if !core.IsFault(err) {
		t.Errorf("injected failure must carry the core.Fault marker: %v", err)
	}
	if drawn, fired := always.f.counts(); drawn != 1 || fired != 1 {
		t.Errorf("counts = (%d, %d)", drawn, fired)
	}
}

// loadPattern records which of 32 loads of one site fault under scope.
func loadPattern(scope string) []bool {
	fb := &flakyBrowser{inner: stubBrowser{}, f: newFaultSource(42, scope, 0.5)}
	var p []bool
	for i := 0; i < 32; i++ {
		_, err := fb.Load(context.Background(), "news.test")
		p = append(p, err != nil)
	}
	return p
}

func TestFlakyBrowserDeterministicPerCallCounter(t *testing.T) {
	a, b := loadPattern("v/DE"), loadPattern("v/DE")
	var flips, fails int
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("call %d: fault pattern not reproducible", i)
		}
		if i > 0 && a[i] != a[i-1] {
			flips++
		}
		if a[i] {
			fails++
		}
	}
	// The per-call counter must vary the draw: at rate 0.5 over 32 calls a
	// constant pattern (counter ignored) is astronomically unlikely.
	if flips == 0 {
		t.Error("fault draws ignore the call counter: same site always draws the same outcome")
	}
	if fails == 0 || fails == 32 {
		t.Errorf("fault rate 0.5 produced %d/32 failures", fails)
	}
}

func TestFlakyResolverPreservesChainCapability(t *testing.T) {
	plain := newFlakyResolver(stubResolver{}, newFaultSource(1, "v/JP", 0))
	if _, ok := plain.(core.ChainResolver); ok {
		t.Error("wrapping a plain resolver must not invent ChainResolver")
	}
	wrapped := newFlakyResolver(stubChainResolver{}, newFaultSource(1, "v/JP", 0))
	cr, ok := wrapped.(core.ChainResolver)
	if !ok {
		t.Fatal("wrapping a ChainResolver must preserve the capability")
	}
	_, chain, err := cr.ResolveChain(context.Background(), "cdn.test")
	if err != nil || len(chain) != 2 {
		t.Fatalf("ResolveChain = (%v, %v)", chain, err)
	}
}

func TestFlakyResolverNeverFaultsReverse(t *testing.T) {
	fr := newFlakyResolver(stubResolver{}, newFaultSource(1, "v/BR", 1))
	if _, err := fr.Resolve(context.Background(), "x.test"); !core.IsFault(err) {
		t.Fatalf("Resolve at rate 1 should fault: %v", err)
	}
	name, ok := fr.Reverse(context.Background(), netip.MustParseAddr("192.0.2.1"))
	if !ok || name != "cdn.test" {
		t.Error("Reverse has no error channel and must never be faulted")
	}
}

func TestFlakyProberFaultsAreTransient(t *testing.T) {
	fp := &flakyProber{inner: stubProber{}, f: newFaultSource(7, "v/KE", 0.5)}
	dst := netip.MustParseAddr("203.0.113.9")
	// Retrying the same destination advances the per-call counter, so a
	// rate-0.5 fault stream cannot fail forever.
	ok := false
	for i := 0; i < 64 && !ok; i++ {
		if _, err := fp.Traceroute(context.Background(), dst); err == nil {
			ok = true
		} else if !core.IsFault(err) {
			t.Fatalf("non-fault error: %v", err)
		}
	}
	if !ok {
		t.Fatal("64 retries at rate 0.5 never succeeded — counter not advancing")
	}
	drawn, fired := fp.f.counts()
	if drawn < 1 || fired != drawn-1 {
		t.Errorf("counts = (%d, %d): want every draw but the last to fire", drawn, fired)
	}
}

func TestFaultScopesAreIndependent(t *testing.T) {
	us, de := loadPattern("volunteer/US"), loadPattern("volunteer/DE")
	same := true
	for i := range us {
		if us[i] != de[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different volunteer scopes drew identical fault streams")
	}
}
