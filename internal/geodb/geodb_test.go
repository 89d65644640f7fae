package geodb

import (
	"strings"
	"testing"

	"github.com/gamma-suite/gamma/internal/geo"
	"github.com/gamma-suite/gamma/internal/netsim"
)

func buildWorld(t *testing.T, nHosts int) (*netsim.Network, *geo.Registry) {
	t.Helper()
	n := netsim.New(netsim.DefaultConfig(77))
	reg := geo.Default()
	if err := n.AddAS(netsim.AS{Number: 1, Name: "a", Org: "a", Country: "DE"}); err != nil {
		t.Fatal(err)
	}
	cities := []string{"Frankfurt, DE", "Paris, FR", "Nairobi, KE", "Singapore, SG", "Amsterdam, NL"}
	for i := 0; i < nHosts; i++ {
		c, _ := reg.City(cities[i%len(cities)])
		if _, err := n.AddHost(netsim.Host{City: c, ASN: 1, Responsive: true}); err != nil {
			t.Fatal(err)
		}
	}
	return n, reg
}

func TestBuildCoverageAndErrors(t *testing.T) {
	n, reg := buildWorld(t, 1000)
	cfg := DefaultBuildConfig(9)
	db := Build("ripe-ipmap", n, reg, cfg)

	if db.Name() != "ripe-ipmap" {
		t.Errorf("name = %q", db.Name())
	}
	hosts := n.Hosts()
	covered, wrongCountry, wrongCity := 0, 0, 0
	for _, h := range hosts {
		c, ok := db.Lookup(h.Addr)
		if !ok {
			continue
		}
		covered++
		if c.Country != h.City.Country {
			wrongCountry++
		} else if c.Name != h.City.Name {
			wrongCity++
		}
	}
	covFrac := float64(covered) / float64(len(hosts))
	if covFrac < 0.92 || covFrac > 0.99 {
		t.Errorf("coverage = %.3f, want ~0.96", covFrac)
	}
	wcFrac := float64(wrongCountry) / float64(covered)
	if wcFrac < 0.04 || wcFrac > 0.13 {
		t.Errorf("wrong-country rate = %.3f, want ~0.08", wcFrac)
	}
	if wrongCity == 0 {
		t.Error("expected some same-country wrong-city errors")
	}
}

func TestBuildDeterministic(t *testing.T) {
	n, reg := buildWorld(t, 100)
	a := Build("ipmap", n, reg, DefaultBuildConfig(3))
	b := Build("ipmap", n, reg, DefaultBuildConfig(3))
	if a.Len() != b.Len() {
		t.Fatal("same seed must give same coverage")
	}
	for _, addr := range a.Addrs() {
		ca, _ := a.Lookup(addr)
		cb, ok := b.Lookup(addr)
		if !ok || ca != cb {
			t.Fatal("same seed must give identical entries")
		}
	}
}

func TestPerfectDB(t *testing.T) {
	n, reg := buildWorld(t, 50)
	db := Build("truth", n, reg, BuildConfig{Seed: 1, Coverage: 1})
	for _, h := range n.Hosts() {
		c, ok := db.Lookup(h.Addr)
		if !ok || c != h.City {
			t.Fatalf("zero-error build must return ground truth; got %v (%v)", c, ok)
		}
	}
}

func TestRefTableFallbackChain(t *testing.T) {
	reg := geo.Default()
	lat := func(a, b geo.City) float64 { return geo.MinRTTMs(geo.DistanceKm(a.Coord, b.Coord)) * 1.6 }
	chain := DefaultRefTables(lat, 5)
	fra, _ := reg.City("Frankfurt, DE")
	cities := []string{"Paris, FR", "Nairobi, KE", "Tokyo, JP", "Doha, QA", "Kigali, RW", "Auckland, NZ", "Lima, PE", "Dakar, SN"}
	verizonHits, wonderHits := 0, 0
	for _, id := range cities {
		c, _ := reg.City(id)
		ms, src, ok := chain.Lookup(fra, c)
		if !ok {
			t.Fatalf("chained lookup must always succeed (pair %s)", id)
		}
		if ms < 0.85*lat(fra, c) {
			t.Errorf("reference %.2f must sit near typical %.2f for %s", ms, lat(fra, c), id)
		}
		switch src {
		case "verizon":
			verizonHits++
		case "wondernetwork":
			wonderHits++
		default:
			t.Errorf("unexpected source %q", src)
		}
	}
	if verizonHits == 0 {
		t.Error("primary provider should cover some pairs")
	}
}

func TestRefTableNoFallback(t *testing.T) {
	reg := geo.Default()
	lat := func(a, b geo.City) float64 { return 10 }
	table := NewRefTable("only", lat, 0.0, 1.1, 7, nil)
	a, _ := reg.City("Paris, FR")
	b, _ := reg.City("Tokyo, JP")
	if _, _, ok := table.Lookup(a, b); ok {
		t.Error("zero-coverage table without fallback must miss")
	}
}

func TestRefTableSymmetricSource(t *testing.T) {
	reg := geo.Default()
	lat := func(a, b geo.City) float64 { return geo.MinRTTMs(geo.DistanceKm(a.Coord, b.Coord)) * 1.6 }
	chain := DefaultRefTables(lat, 5)
	a, _ := reg.City("Paris, FR")
	b, _ := reg.City("Tokyo, JP")
	m1, s1, _ := chain.Lookup(a, b)
	m2, s2, _ := chain.Lookup(b, a)
	if m1 != m2 || s1 != s2 {
		t.Error("reference stats must be symmetric in the pair")
	}
}

func TestCityCodesUniqueAndComplete(t *testing.T) {
	reg := geo.Default()
	missing := 0
	for _, country := range reg.Countries() {
		for _, c := range country.Cities {
			if _, ok := CityCode(c); !ok {
				missing++
				t.Errorf("city %s has no hostname code", c.ID())
			}
		}
	}
	_ = missing
}

func TestHintHostnameRoundTrip(t *testing.T) {
	reg := geo.Default()
	for _, cityID := range []string{"Amsterdam, NL", "Frankfurt, DE", "Nairobi, KE", "Al Fujairah, AE"} {
		c, _ := reg.City(cityID)
		name := HintHostname(c, "adnexus-cdn.net", 3)
		got, ok := ParseHintCity(name, reg)
		if !ok {
			t.Errorf("hostname %q should carry a hint", name)
			continue
		}
		if got.ID() != cityID {
			t.Errorf("hostname %q parsed to %s, want %s", name, got.ID(), cityID)
		}
		cc, ok := ParseHintCountry(name, reg)
		if !ok || cc != c.Country {
			t.Errorf("country hint for %q = %q (%v)", name, cc, ok)
		}
	}
}

func TestOpaqueHostnameHasNoHint(t *testing.T) {
	reg := geo.Default()
	name := OpaqueHostname("trackpixel.io", 123456)
	if _, ok := ParseHintCity(name, reg); ok {
		t.Errorf("opaque hostname %q should carry no hint", name)
	}
}

func TestParseHintFullCityName(t *testing.T) {
	reg := geo.Default()
	c, ok := ParseHintCity("core1.frankfurt.example.net", reg)
	if !ok || c.Name != "Frankfurt" {
		t.Errorf("full city name should parse: %v (%v)", c, ok)
	}
	c, ok = ParseHintCity("ix.hongkongcity.example.net", reg)
	if ok {
		t.Errorf("partial token should not match: %v", c)
	}
	// Every city whose name is one letter run once spaces are dropped
	// parses from it, in any case ("Saint-Ghislain" is two runs).
	for cityID := range cityCodes {
		name, _, _ := strings.Cut(cityID, ",")
		name = strings.ReplaceAll(name, " ", "")
		if len(splitTokens(strings.ToLower(name))) != 1 {
			continue
		}
		host := "core1." + name + ".example.net"
		if c, ok := ParseHintCity(host, reg); !ok || c.ID() != cityID {
			t.Errorf("ParseHintCity(%q) = %s (%v), want %s", host, c.ID(), ok, cityID)
		}
	}
	// Two city names: the leftmost wins, on every call.
	for i := 0; i < 20; i++ {
		if c, _ := ParseHintCity("paris.london.example.net", reg); c.ID() != "Paris, FR" {
			t.Fatalf("two city names parsed to %s, want the leftmost, Paris, FR", c.ID())
		}
	}
}

func TestParseHintNoFalsePositiveOnCommonWords(t *testing.T) {
	reg := geo.Default()
	for _, name := range []string{"www.example.com", "static.cdn.assets.example", "api.gateway.example.net"} {
		if c, ok := ParseHintCity(name, reg); ok {
			t.Errorf("hostname %q should not hint a city, got %s", name, c.ID())
		}
	}
}
