package worldgen

import (
	"fmt"
	"math/rand/v2"
	"strings"

	"github.com/gamma-suite/gamma/internal/rng"
	"github.com/gamma-suite/gamma/internal/websim"
)

// Regional-site name fragments. Combined as <adjective><noun>.<suffix>.
var nameAdjectives = []string{
	"daily", "metro", "prime", "gulf", "pearl", "lotus", "nile", "savanna",
	"alpine", "coral", "royal", "crescent", "panorama", "horizon", "zenith",
	"aurora", "summit", "harbor", "velvet", "golden", "urban", "national",
	"pacific", "eastern", "western", "unity", "liberty", "capital",
}

var nameNouns = []string{
	"news", "times", "market", "shop", "bank", "sport", "tech", "media",
	"portal", "travel", "health", "radio", "jobs", "auto", "food", "music",
	"weather", "estate", "express", "gazette", "bazaar", "wallet", "stream",
	"forum", "classifieds", "recipes", "tickets", "academy",
}

// nounCategory maps a noun to the site category used in reporting.
var nounCategory = map[string]string{
	"news": "news", "times": "news", "gazette": "news", "express": "news",
	"market": "e-commerce", "shop": "e-commerce", "bazaar": "e-commerce", "tickets": "e-commerce",
	"bank": "finance", "wallet": "finance", "estate": "real-estate",
	"sport": "sports", "tech": "technology", "media": "media", "stream": "video",
	"portal": "portal", "travel": "travel", "health": "health", "radio": "media",
	"jobs": "classifieds", "auto": "classifieds", "classifieds": "classifieds",
	"food": "lifestyle", "recipes": "lifestyle", "music": "entertainment",
	"weather": "news", "forum": "social", "academy": "education",
}

// ccTLDSuffixes gives each source country its common commercial suffixes.
var ccTLDSuffixes = map[string][]string{
	"AZ": {"az", "com.az", "com"}, "DZ": {"dz", "com.dz", "com"},
	"EG": {"com.eg", "eg", "com"}, "RW": {"rw", "co.rw", "com"},
	"UG": {"co.ug", "ug", "com"}, "AR": {"com.ar", "ar", "com"},
	"RU": {"ru", "com.ru", "com"}, "LK": {"lk", "com.lk", "com"},
	"TH": {"co.th", "th", "com"}, "AE": {"ae", "com.ae", "com"},
	"GB": {"co.uk", "uk", "com"}, "AU": {"com.au", "au", "com"},
	"CA": {"ca", "com", "net"}, "IN": {"in", "co.in", "com"},
	"JP": {"co.jp", "jp", "com"}, "JO": {"jo", "com.jo", "com"},
	"NZ": {"co.nz", "nz", "com"}, "PK": {"com.pk", "pk", "com"},
	"QA": {"com.qa", "qa", "com"}, "SA": {"com.sa", "sa", "com"},
	"TW": {"com.tw", "tw", "com"}, "US": {"com", "net", "org"},
	"LB": {"com.lb", "lb", "com"},
}

// govAgencies are the 50 agency labels used to mint government sites.
var govAgencies = []string{
	"health", "finance", "interior", "education", "tax", "customs",
	"immigration", "statistics", "parliament", "justice", "transport",
	"agriculture", "energy", "labor", "foreign-affairs", "environment",
	"telecom-authority", "central-bank", "elections", "municipality",
	"police", "civil-service", "tourism", "sports-authority",
	"water-authority", "housing", "planning", "culture", "science",
	"defense", "postal", "ports", "aviation", "railways",
	"social-security", "pensions", "veterans", "youth", "women-affairs",
	"minerals", "fisheries", "forestry", "meteorology", "disaster-mgmt",
	"anti-corruption", "human-rights", "archives", "library", "museums",
	"passports",
}

// globalSiteOwners lists the globally-ranked sites and their owning orgs.
// google.com and wikipedia.org appear in every country's top list; the
// other seven appear in at least two-thirds of countries (§3.2).
var globalSiteOwners = []struct {
	Domain     string
	Org        string
	Everywhere bool
}{
	{"google.com", "Google", true},
	{"wikipedia.org", "Wikimedia", true},
	{"instagram.com", "Facebook", false},
	{"youtube.com", "Google", false},
	{"facebook.com", "Facebook", false},
	{"openai.com", "OpenAI", false},
	{"twitter.com", "Twitter", false},
	{"whatsapp.com", "Facebook", false},
	{"linkedin.com", "Microsoft", false},
}

// googleCCTLDSite maps source countries to Google's country-specific site
// appearing in their top lists (first-party non-local cases, §6.7).
var googleCCTLDSite = map[string]string{
	"EG": "google.com.eg", "TH": "google.co.th", "QA": "google.com.qa",
	"JO": "google.jo", "PK": "google.com.pk", "AZ": "google.az",
	"LK": "google.lk", "AE": "google.ae", "DZ": "google.dz", "RW": "google.rw",
}

// regionalSiteName mints a deterministic unique regional domain.
func regionalSiteName(cc string, idx int, r *rand.Rand) (domain, category string) {
	adj := nameAdjectives[r.IntN(len(nameAdjectives))]
	noun := nameNouns[r.IntN(len(nameNouns))]
	suffixes := ccTLDSuffixes[cc]
	if len(suffixes) == 0 {
		suffixes = []string{"com"}
	}
	suffix := suffixes[r.IntN(len(suffixes))]
	name := adj + noun
	if idx >= len(nameAdjectives)*2 { // ensure uniqueness at scale
		name = fmt.Sprintf("%s%s%d", adj, noun, idx)
	}
	return fmt.Sprintf("%s.%s", name, suffix), nounCategory[noun]
}

// adultSiteName mints names for the adult sites the target-selection step
// must filter out of rankings (§3.2).
func adultSiteName(cc string, idx int) string {
	return fmt.Sprintf("adult-stream-%s-%d.com", strings.ToLower(cc), idx)
}

// trackerPath returns the URL path a tracker hostname is fetched under.
func trackerPath(resType string) string {
	switch resType {
	case "script":
		return "/tag.js"
	case "img":
		return "/pixel.gif"
	default:
		return "/collect"
	}
}

// trackerTypes are the resource types a tracker endpoint is fetched as.
var trackerTypes = []string{"script", "img", "xhr"}

// appendTrackerResources arranges tracker hostnames into page resources
// appended to dst. When Google's tag manager is among them, it becomes a
// script whose children are the other Google endpoints — reproducing the
// chained-load shape the browser records in the field. The tag (site
// domain + variant) uniquifies the container URL, exactly like real GTM
// container IDs: the web's chained-load index is keyed by URL, and two
// sites sharing a root URL would otherwise leak each other's tracker
// chains.
func appendTrackerResources(dst []websim.Resource, hostnames []string, orgOf func(string) string, tag string, r *rand.Rand) []websim.Resource {
	cookiesFor := func(h string) []string {
		// Most tracking endpoints set an identifier cookie, some a session
		// cookie too — the mechanism third-party-cookie studies count.
		if r.IntN(10) < 7 {
			cs := []string{"_uid_" + shortOrg(orgOf(h))}
			if r.IntN(3) == 0 {
				cs = append(cs, "_trk_sess")
			}
			return cs
		}
		return nil
	}
	nGoogle := 0
	for _, h := range hostnames {
		if orgOf(h) == "Google" {
			nGoogle++
		}
	}
	if nGoogle > 0 {
		// The first Google hostname carries the tag; the rest load as its
		// children, in order.
		var root websim.Resource
		for _, h := range hostnames {
			if orgOf(h) != "Google" {
				continue
			}
			if root.URL == "" {
				root = websim.Resource{
					URL:     fmt.Sprintf("https://%s/gtm.js?id=GTM-%08X", h, rng.Hash("gtm-container", tag)&0xffffffff),
					Type:    "script",
					Cookies: cookiesFor(h),
				}
				if nGoogle > 1 {
					root.Children = make([]websim.Resource, 0, nGoogle-1)
				}
				continue
			}
			typ := trackerTypes[r.IntN(len(trackerTypes))]
			root.Children = append(root.Children, websim.Resource{
				URL: "https://" + h + trackerPath(typ), Type: typ, Cookies: cookiesFor(h),
			})
		}
		dst = append(dst, root)
	}
	for _, h := range hostnames {
		if orgOf(h) == "Google" {
			continue
		}
		typ := trackerTypes[r.IntN(len(trackerTypes))]
		dst = append(dst, websim.Resource{
			URL: "https://" + h + trackerPath(typ), Type: typ, Cookies: cookiesFor(h),
		})
	}
	return dst
}

// shortOrg produces a compact lowercase cookie-name fragment for an org.
func shortOrg(name string) string {
	if name == "" {
		return "x"
	}
	s := strings.ToLower(name)
	if len(s) > 6 {
		s = s[:6]
	}
	return s
}
