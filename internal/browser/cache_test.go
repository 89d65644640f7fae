package browser

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"github.com/gamma-suite/gamma/internal/core"
	"github.com/gamma-suite/gamma/internal/websim"
)

// parseCacheWeb builds sites with scripts, a DE variant on even sites, and
// a rotating ad pool — the last so sessions append to the cached reference
// slice, exercising the capacity-clip copy protection.
func parseCacheWeb(t *testing.T, n int) *websim.Web {
	t.Helper()
	w := websim.NewWeb()
	for i := 0; i < n; i++ {
		site := websim.Site{
			Domain:  fmt.Sprintf("site%02d.example", i),
			RotateK: 1,
			Rotating: []websim.Resource{
				{URL: fmt.Sprintf("https://ads.example/slot%da.js", i), Type: "script"},
				{URL: fmt.Sprintf("https://ads.example/slot%db.js", i), Type: "script"},
				{URL: fmt.Sprintf("https://ads.example/slot%dc.js", i), Type: "script"},
			},
			Resources: []websim.Resource{
				{URL: fmt.Sprintf("https://cdn.example/app%d.js", i), Type: "script"},
				{URL: fmt.Sprintf("https://img.example/hero%d.png", i), Type: "img"},
			},
		}
		if i%2 == 0 {
			site.Variants = map[string][]websim.Resource{"DE": {
				{URL: fmt.Sprintf("https://tracker.de/pixel%d.gif", i), Type: "img"},
			}}
		}
		if err := w.AddSite(site); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

// TestParseCacheLoadEquivalence pins that sessions sharing a parse cache
// record exactly the loads an uncached browser records — including the
// session-specific rotating resources appended after the cached refs.
func TestParseCacheLoadEquivalence(t *testing.T) {
	const n = 4
	web := parseCacheWeb(t, n)
	cache := NewParseCache()
	for _, cc := range []string{"", "DE", "US"} {
		for session := 0; session < 3; session++ {
			cfg := DefaultConfig(9, fmt.Sprintf("v-%s-%d", cc, session))
			cfg.Country = cc
			cached := cfg
			cached.Pages = cache
			for i := 0; i < n; i++ {
				domain := fmt.Sprintf("site%02d.example", i)
				got := New(web, cached).Load(domain)
				want := New(web, cfg).Load(domain)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("cached load of %s for %q session %d diverged:\n got %+v\nwant %+v",
						domain, cc, session, got, want)
				}
			}
		}
	}
	// Distinct documents: one base per site, one DE variant per even site.
	wantDocs := uint64(n + (n+1)/2)
	if st := cache.Stats(); st.Derivations != wantDocs || st.Hits == 0 {
		t.Errorf("stats = %+v, want %d derivations and repeat hits", st, wantDocs)
	}
}

// TestParseCacheConcurrentRace hammers one shared parse cache from 8
// goroutine "volunteers" loading overlapping sites. Run under -race this
// is the locking regression test; the stats prove each distinct document
// parses exactly once.
func TestParseCacheConcurrentRace(t *testing.T) {
	const (
		goroutines = 8
		rounds     = 50
		nSites     = 4
	)
	web := parseCacheWeb(t, nSites)
	cache := NewParseCache()
	countries := []string{"", "DE", "US"}
	type load struct {
		domain, cc string
	}
	var loads []load
	want := map[load]core.PageRecord{}
	for i := 0; i < nSites; i++ {
		domain := fmt.Sprintf("site%02d.example", i)
		for _, cc := range countries {
			cfg := DefaultConfig(9, "shared-session")
			cfg.Country = cc
			loads = append(loads, load{domain, cc})
			want[load{domain, cc}] = New(web, cfg).Load(domain)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Phase-shifted walk so fills overlap in every interleaving.
				for i := range loads {
					l := loads[(i+g)%len(loads)]
					cfg := DefaultConfig(9, "shared-session")
					cfg.Country = l.cc
					cfg.Pages = cache
					got := New(web, cfg).Load(l.domain)
					if !reflect.DeepEqual(got, want[l]) {
						select {
						case errs <- fmt.Sprintf("load %s for %q diverged under contention", l.domain, l.cc):
						default:
						}
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	st := cache.Stats()
	wantDocs := uint64(nSites + (nSites+1)/2)
	if st.Derivations != wantDocs {
		t.Errorf("derivations = %d, want one per distinct document (%d)", st.Derivations, wantDocs)
	}
	total := uint64(goroutines * rounds * len(loads))
	if st.Hits+st.Misses != total {
		t.Errorf("hits(%d)+misses(%d) != lookups(%d)", st.Hits, st.Misses, total)
	}
	if st.Misses < st.Derivations {
		t.Errorf("misses(%d) < derivations(%d)", st.Misses, st.Derivations)
	}
}
