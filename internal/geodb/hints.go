package geodb

import (
	"fmt"
	"strings"

	"github.com/gamma-suite/gamma/internal/geo"
)

// cityCodes maps "City, CC" identifiers to the airport-style codes that
// operators embed in router and edge hostnames (the convention CAIDA's
// hoiho learns from real rDNS data; §4.1.3 cites it via Luckie et al.).
var cityCodes = map[string]string{
	"Baku, AZ": "bak", "Algiers, DZ": "alg", "Oran, DZ": "orn",
	"Cairo, EG": "cai", "Alexandria, EG": "alx", "Kigali, RW": "kgl",
	"Kampala, UG": "kla", "Buenos Aires, AR": "eze", "Cordoba, AR": "cor",
	"Moscow, RU": "mow", "Saint Petersburg, RU": "led", "Colombo, LK": "cmb",
	"Bangkok, TH": "bkk", "Chiang Mai, TH": "cnx", "Dubai, AE": "dxb",
	"Abu Dhabi, AE": "auh", "Al Fujairah, AE": "fjr", "London, GB": "lon",
	"Manchester, GB": "man", "Sydney, AU": "syd", "Melbourne, AU": "mel",
	"Perth, AU": "per", "Toronto, CA": "yyz", "Montreal, CA": "yul",
	"Vancouver, CA": "yvr", "Mumbai, IN": "bom", "Delhi, IN": "del",
	"Chennai, IN": "maa", "Tokyo, JP": "tyo", "Osaka, JP": "osa",
	"Amman, JO": "amm", "Auckland, NZ": "akl", "Wellington, NZ": "wlg",
	"Karachi, PK": "khi", "Lahore, PK": "lhe", "Islamabad, PK": "isb",
	"Doha, QA": "doh", "Riyadh, SA": "ruh", "Jeddah, SA": "jed",
	"Taipei, TW": "tpe", "Ashburn, US": "iad", "New York, US": "nyc",
	"San Francisco, US": "sfo", "Dallas, US": "dfw", "Beirut, LB": "bey",
	"Paris, FR": "par", "Marseille, FR": "mrs", "Frankfurt, DE": "fra",
	"Berlin, DE": "ber", "Nairobi, KE": "nbo", "Mombasa, KE": "mba",
	"Kuala Lumpur, MY": "kul", "Singapore, SG": "sin", "Hong Kong, HK": "hkg",
	"Muscat, OM": "mct", "Sofia, BG": "sof", "Sao Paulo, BR": "gru",
	"Rio de Janeiro, BR": "gig", "Helsinki, FI": "hel", "Hamina, FI": "hmn",
	"Amsterdam, NL": "ams", "Tel Aviv, IL": "tlv", "Milan, IT": "mil",
	"Rome, IT": "rom", "Dublin, IE": "dub", "Brussels, BE": "bru",
	"Saint-Ghislain, BE": "ghs", "Accra, GH": "acc", "Istanbul, TR": "ist",
	"Zurich, CH": "zrh", "Madrid, ES": "mad", "Warsaw, PL": "waw",
	"Stockholm, SE": "sto", "Oslo, NO": "osl", "Copenhagen, DK": "cph",
	"Prague, CZ": "prg", "Vienna, AT": "vie", "Lisbon, PT": "lis",
	"Johannesburg, ZA": "jnb", "Cape Town, ZA": "cpt", "Lagos, NG": "los",
	"Casablanca, MA": "cmn", "Jakarta, ID": "jkt", "Ho Chi Minh City, VN": "sgn",
	"Manila, PH": "mnl", "Seoul, KR": "sel", "Shanghai, CN": "sha",
	"Mexico City, MX": "mex", "Queretaro, MX": "qro", "Santiago, CL": "scl",
	"Bogota, CO": "bog", "Montevideo, UY": "mvd", "Lima, PE": "lim",
	"Athens, GR": "ath", "Budapest, HU": "bud", "Bucharest, RO": "buh",
	"Kyiv, UA": "iev", "Almaty, KZ": "ala", "Kuwait City, KW": "kwi",
	"Manama, BH": "bah", "Nicosia, CY": "nco", "Luxembourg, LU": "lux",
	"Tallinn, EE": "tll", "Dhaka, BD": "dac", "Kathmandu, NP": "ktm",
	"Addis Ababa, ET": "add", "Dar es Salaam, TZ": "dar", "Dakar, SN": "dkr",
	"Tunis, TN": "tun", "Suva, FJ": "suv",
}

// codeToCity is the inverse index, built once at init.
var codeToCity = func() map[string]string {
	m := make(map[string]string, len(cityCodes))
	for cityID, code := range cityCodes {
		if prev, dup := m[code]; dup {
			panic(fmt.Sprintf("geodb: city code %q used by both %q and %q", code, prev, cityID))
		}
		m[code] = cityID
	}
	return m
}()

// cityByName indexes the same cities by name as a hostname spells it:
// lowercase, spaces dropped ("Buenos Aires, AR" is "buenosaires"). Built
// once at init; a name shared by two cities would make a name hint
// ambiguous, so it panics like a shared code does.
var cityByName = func() map[string]string {
	m := make(map[string]string, len(cityCodes))
	for cityID := range cityCodes {
		name, _, _ := strings.Cut(cityID, ",")
		name = strings.ReplaceAll(strings.ToLower(name), " ", "")
		if prev, dup := m[name]; dup {
			panic(fmt.Sprintf("geodb: city name %q used by both %q and %q", name, prev, cityID))
		}
		m[name] = cityID
	}
	return m
}()

// CityCode returns the airport-style hostname code for a city.
func CityCode(c geo.City) (string, bool) {
	code, ok := cityCodes[c.ID()]
	return code, ok
}

// HintHostname fabricates the kind of PTR record a CDN or tracker operator
// publishes for an edge server, embedding the true city's code, e.g.
// "edge-ams3.r.adnexus-cdn.net" for an Amsterdam edge of adnexus-cdn.net.
func HintHostname(c geo.City, orgDomain string, idx int) string {
	code, ok := CityCode(c)
	if !ok {
		code = "gw"
	}
	return fmt.Sprintf("edge-%s%d.r.%s", code, idx, orgDomain)
}

// OpaqueHostname fabricates a PTR record with no usable location hint,
// as published by operators that name hosts after serial numbers.
func OpaqueHostname(orgDomain string, idx int) string {
	return fmt.Sprintf("host-%06d.%s", idx, orgDomain)
}

// ParseHintCity extracts a location hint from an rDNS hostname: any
// hostname token that is a known city code or a full city name resolves to
// that city. ok is false when the name carries no recognizable hint.
func ParseHintCity(hostname string, reg *geo.Registry) (geo.City, bool) {
	tokens := splitTokens(strings.ToLower(hostname))
	for _, token := range tokens {
		if cityID, ok := codeToCity[token]; ok {
			if c, ok := reg.City(cityID); ok {
				return c, true
			}
		}
	}
	// Full city names (rare but real: "frankfurt.de.example.net"). When
	// tokens name two different cities, the leftmost wins.
	for _, token := range tokens {
		if cityID, ok := cityByName[token]; ok {
			if c, ok := reg.City(cityID); ok {
				return c, true
			}
		}
	}
	return geo.City{}, false
}

// ParseHintCountry is ParseHintCity lifted to country granularity, which is
// what the reverse-DNS constraint actually compares (§4.1.3).
func ParseHintCountry(hostname string, reg *geo.Registry) (string, bool) {
	c, ok := ParseHintCity(hostname, reg)
	if !ok {
		return "", false
	}
	return c.Country, true
}

// splitTokens breaks a hostname into letter runs: digits and punctuation
// separate tokens, so "edge-fra2.r.x.net" yields [edge fra r x net].
func splitTokens(hostname string) []string {
	return strings.FieldsFunc(hostname, func(r rune) bool {
		return r < 'a' || r > 'z'
	})
}
