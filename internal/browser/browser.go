// Package browser is Gamma's C1 component (§3): it drives isolated browser
// sessions that load target websites and record every network request made
// during the load. The emulation supports the major browser profiles the
// tool supports in the field — Chrome, Firefox, and the privacy-focused
// Brave (which ships a filter-list blocker) — plus the two timing controls
// the paper tuned: a render wait (20 s) and a hard 180 s timeout after
// which a wedged instance is killed and the tool moves on. It also injects
// the background Google-services requests the Chrome webdriver generates,
// which the analysis pipeline must strip (§5). Each load is recorded as
// the dataset's core.PageRecord, which ToHAR can also export as HAR 1.2.
package browser

import (
	"fmt"
	"strings"

	"github.com/gamma-suite/gamma/internal/core"
	"github.com/gamma-suite/gamma/internal/filterlist"
	"github.com/gamma-suite/gamma/internal/rng"
	"github.com/gamma-suite/gamma/internal/websim"
)

// Kind selects the browser profile.
type Kind int

// Supported browsers.
const (
	Chrome Kind = iota
	Firefox
	Brave
)

// String names the browser.
func (k Kind) String() string {
	switch k {
	case Chrome:
		return "chrome"
	case Firefox:
		return "firefox"
	case Brave:
		return "brave"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Config tunes a browser session, mirroring Gamma's tuning knobs (§3.1).
type Config struct {
	Kind Kind
	// RenderWaitMs is how long the session waits for a page to render
	// fully before collecting requests (the study used 20 000 ms).
	RenderWaitMs float64
	// HardTimeoutMs kills a non-responsive instance (the study: 180 000 ms).
	HardTimeoutMs float64
	// MaxDepth bounds chained script loads.
	MaxDepth int
	// Blocker is applied by privacy browsers (Brave); matching requests are
	// blocked before they leave the browser.
	Blocker *filterlist.Engine
	// LoadFailureProb models the vantage's connection quality: each site
	// load independently fails with this probability.
	LoadFailureProb float64
	// Seed and SessionID make failures deterministic per volunteer.
	Seed      uint64
	SessionID string
	// Country is the client's country (ISO code); sites may serve
	// country-adapted content (regional tracker variants).
	Country string
	// Pages, when set, is a study-wide memo of parsed homepage documents
	// shared across sessions; page markup is pure per (site, country
	// variant), so sharing it is invisible in the outputs.
	Pages *ParseCache
	// WebdriverNoise lists background requests the automation stack itself
	// issues during every page load.
	WebdriverNoise []string
}

// DefaultConfig returns the study's tuned configuration.
func DefaultConfig(seed uint64, sessionID string) Config {
	return Config{
		Kind:          Chrome,
		RenderWaitMs:  20000,
		HardTimeoutMs: 180000,
		MaxDepth:      4,
		Seed:          seed,
		SessionID:     sessionID,
		WebdriverNoise: []string{
			"https://update.googleapis.com/service/update2",
			"https://optimizationguide-pa.googleapis.com/downloads",
			"https://safebrowsing.googleapis.com/v4/threatListUpdates",
		},
	}
}

// Browser drives sessions against the synthetic web.
type Browser struct {
	web *websim.Web
	cfg Config
}

// New creates a browser over the given web.
func New(web *websim.Web, cfg Config) *Browser {
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 4
	}
	return &Browser{web: web, cfg: cfg}
}

// Config returns the session configuration.
func (b *Browser) Config() Config { return b.cfg }

// Load opens an isolated session on the target site and records the network
// requests observed during the page load.
func (b *Browser) Load(siteDomain string) core.PageRecord {
	siteDomain = strings.ToLower(siteDomain)
	out := core.PageRecord{Site: siteDomain, URL: "https://" + siteDomain + "/"}

	site, ok := b.web.Site(siteDomain)
	if !ok {
		out.FailReason = "dns: no such host"
		return out
	}
	out.URL = site.URL()

	r := rng.New(b.cfg.Seed, "browser-load", b.cfg.SessionID, siteDomain)
	if rng.Bernoulli(r, b.cfg.LoadFailureProb) {
		out.FailReason = "connection: load failed"
		out.DurationMs = rng.Float64InRange(r, 1000, b.cfg.HardTimeoutMs)
		return out
	}
	if b.cfg.HardTimeoutMs > 0 && site.RenderMs > b.cfg.HardTimeoutMs {
		out.FailReason = "timeout: instance killed after hard limit"
		out.DurationMs = b.cfg.HardTimeoutMs
		return out
	}

	// Parse the homepage markup exactly as delivered to this country.
	refs := b.pageRefs(site)
	// Ad slots fill dynamically: each session draws RotateK resources from
	// the site's rotation pool (why single-visit studies undercount).
	if site.RotateK > 0 && len(site.Rotating) > 0 {
		rr := rng.New(b.cfg.Seed, "ad-rotation", b.cfg.SessionID, siteDomain)
		perm := rr.Perm(len(site.Rotating))
		k := site.RotateK
		if k > len(perm) {
			k = len(perm)
		}
		for _, idx := range perm[:k] {
			res := site.Rotating[idx]
			refs = append(refs, ResourceRef{URL: res.URL, Type: res.Type})
		}
	}
	// The navigation itself is the first recorded request.
	out.Requests = append(out.Requests, core.RequestRecord{
		URL: out.URL, Domain: siteDomain, Type: "document", Initiator: "navigation",
	})
	// The webdriver's own background traffic shows up in the request log.
	for _, u := range b.cfg.WebdriverNoise {
		out.Requests = append(out.Requests, core.RequestRecord{
			URL: u, Domain: websim.DomainOf(u), Type: "xhr", Initiator: "webdriver",
		})
	}
	// Breadth-first over document resources and chained script loads.
	type item struct {
		ref       ResourceRef
		initiator string
		depth     int
	}
	queue := make([]item, 0, len(refs))
	for _, ref := range refs {
		queue = append(queue, item{ref: ref, initiator: "document", depth: 0})
	}
	seen := map[string]bool{}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		if seen[it.ref.URL] {
			continue
		}
		seen[it.ref.URL] = true
		req := core.RequestRecord{
			URL:        it.ref.URL,
			Domain:     websim.DomainOf(it.ref.URL),
			Type:       it.ref.Type,
			Initiator:  it.initiator,
			ThirdParty: !sameSite(websim.DomainOf(it.ref.URL), siteDomain),
		}
		req.SetCookies = b.web.ResourceCookies(it.ref.URL)
		if b.cfg.Blocker != nil {
			blocked, _ := b.cfg.Blocker.Match(filterlist.Request{
				URL:        req.URL,
				Domain:     req.Domain,
				PageDomain: siteDomain,
				ThirdParty: !sameSite(req.Domain, siteDomain),
				Type:       resourceType(req.Type),
			})
			req.Blocked = blocked
		}
		out.Requests = append(out.Requests, req)
		if req.Blocked || it.depth >= b.cfg.MaxDepth {
			continue
		}
		for _, child := range b.web.ResourceChildren(it.ref.URL) {
			queue = append(queue, item{
				ref:       ResourceRef{URL: child.URL, Type: child.Type},
				initiator: it.ref.URL,
				depth:     it.depth + 1,
			})
		}
	}

	out.OK = true
	out.DurationMs = site.RenderMs
	if wait := b.cfg.RenderWaitMs; wait > out.DurationMs {
		out.DurationMs = wait
	}
	return out
}

// pageRefs resolves the homepage's parsed resource list: through the
// study-wide parse memo when one is wired in, else via the web's page
// memo (markup cached, parse per load).
func (b *Browser) pageRefs(site websim.Site) []ResourceRef {
	if b.cfg.Pages != nil {
		return b.cfg.Pages.refs(b.web, site, b.cfg.Country)
	}
	html, ok := b.web.PageHTML(site.Domain, b.cfg.Country)
	if !ok {
		html = site.HTMLFor(b.cfg.Country)
	}
	return ParseHTML(html)
}

func sameSite(a, b string) bool {
	return a == b || strings.HasSuffix(a, "."+b) || strings.HasSuffix(b, "."+a)
}

func resourceType(t string) filterlist.ResourceType {
	switch t {
	case "script":
		return filterlist.TypeScript
	case "img":
		return filterlist.TypeImage
	case "css":
		return filterlist.TypeStylesheet
	case "iframe":
		return filterlist.TypeSubdocument
	case "xhr":
		return filterlist.TypeXHR
	default:
		return filterlist.TypeOther
	}
}
