package browser

import (
	"encoding/json"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/gamma-suite/gamma/internal/core"
	"github.com/gamma-suite/gamma/internal/filterlist"
	"github.com/gamma-suite/gamma/internal/websim"
)

func testWeb(t *testing.T) *websim.Web {
	t.Helper()
	w := websim.NewWeb()
	err := w.AddSite(websim.Site{
		Domain:   "news.example.pk",
		Country:  "PK",
		Kind:     websim.Regional,
		RenderMs: 6000,
		Resources: []websim.Resource{
			{URL: "https://static.news.example.pk/site.css", Type: "css"},
			{URL: "https://static.news.example.pk/logo.png", Type: "img"},
			{URL: "https://tagmanager.trk.example/gtm.js", Type: "script", Children: []websim.Resource{
				{URL: "https://analytics.trk.example/ga.js", Type: "script", Children: []websim.Resource{
					{URL: "https://collect.trk.example/beacon", Type: "xhr"},
				}},
			}},
			{URL: "https://ads.adnet.example/frame", Type: "iframe"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AddSite(websim.Site{Domain: "slow.example", RenderMs: 400000}); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestParseHTMLExtractsAllTypes(t *testing.T) {
	s := websim.Site{
		Domain: "x.example",
		Resources: []websim.Resource{
			{URL: "https://a/1.css", Type: "css"},
			{URL: "https://a/2.js", Type: "script"},
			{URL: "https://a/3.png", Type: "img"},
			{URL: "https://a/4", Type: "iframe"},
			{URL: "https://a/5", Type: "xhr"},
		},
	}
	refs := ParseHTML(s.HTML())
	if len(refs) != 5 {
		t.Fatalf("parsed %d refs, want 5: %+v", len(refs), refs)
	}
	types := map[string]bool{}
	for _, r := range refs {
		types[r.Type] = true
	}
	for _, want := range []string{"css", "script", "img", "iframe", "xhr"} {
		if !types[want] {
			t.Errorf("missing resource type %q", want)
		}
	}
}

func TestParseHTMLMalformed(t *testing.T) {
	cases := []string{
		"",
		"<",
		"<script src=",
		"<script src='unterminated",
		"plain text only",
		"<!-- comment --><script src=\"https://x/1.js\"></script>",
		"<SCRIPT SRC=\"https://x/2.js\"></SCRIPT>",
		"<img src=https://x/bare.png alt=x>",
	}
	for _, doc := range cases {
		refs := ParseHTML(doc) // must never panic
		_ = refs
	}
	refs := ParseHTML("<SCRIPT SRC=\"https://x/2.js\"></SCRIPT>")
	if len(refs) != 1 || refs[0].URL != "https://x/2.js" {
		t.Errorf("uppercase tag should parse: %+v", refs)
	}
	refs = ParseHTML("<img src=https://x/bare.png alt=x>")
	if len(refs) != 1 || refs[0].URL != "https://x/bare.png" {
		t.Errorf("unquoted attribute should parse: %+v", refs)
	}
}

// requestedDomains returns the distinct requested (non-blocked) domains of
// a page load, sorted.
func requestedDomains(p core.PageRecord) []string {
	seen := map[string]bool{}
	for _, r := range p.Requests {
		if !r.Blocked {
			seen[r.Domain] = true
		}
	}
	out := make([]string, 0, len(seen))
	for d := range seen {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

func TestLoadRecordsChainedRequests(t *testing.T) {
	w := testWeb(t)
	b := New(w, DefaultConfig(1, "vol-pk"))
	pl := b.Load("news.example.pk")
	if !pl.OK {
		t.Fatalf("load failed: %s", pl.FailReason)
	}
	domains := requestedDomains(pl)
	joined := strings.Join(domains, ",")
	for _, want := range []string{"tagmanager.trk.example", "analytics.trk.example", "collect.trk.example", "ads.adnet.example"} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing chained/embedded domain %s in %v", want, domains)
		}
	}
	// Chained loads carry their initiator.
	var foundChild bool
	for _, r := range pl.Requests {
		if r.Domain == "analytics.trk.example" && r.Initiator == "https://tagmanager.trk.example/gtm.js" {
			foundChild = true
		}
	}
	if !foundChild {
		t.Error("chained request should record its initiating script")
	}
}

func TestWebdriverNoiseInjected(t *testing.T) {
	w := testWeb(t)
	b := New(w, DefaultConfig(1, "vol-pk"))
	pl := b.Load("news.example.pk")
	noise := 0
	for _, r := range pl.Requests {
		if r.Initiator == "webdriver" {
			noise++
			if !strings.Contains(r.Domain, "googleapis") {
				t.Errorf("unexpected webdriver noise domain %s", r.Domain)
			}
		}
	}
	if noise != 3 {
		t.Errorf("webdriver noise requests = %d, want 3", noise)
	}
}

func TestHardTimeoutKillsInstance(t *testing.T) {
	w := testWeb(t)
	b := New(w, DefaultConfig(1, "vol-x"))
	pl := b.Load("slow.example")
	if pl.OK {
		t.Fatal("render longer than hard timeout must fail")
	}
	if !strings.HasPrefix(pl.FailReason, "timeout") {
		t.Errorf("fail reason = %q", pl.FailReason)
	}
	if pl.DurationMs != 180000 {
		t.Errorf("duration = %v, want hard limit", pl.DurationMs)
	}
}

func TestUnknownSiteFailsDNS(t *testing.T) {
	w := testWeb(t)
	b := New(w, DefaultConfig(1, "vol-x"))
	pl := b.Load("nonexistent.example")
	if pl.OK || !strings.HasPrefix(pl.FailReason, "dns") {
		t.Errorf("unknown site: ok=%v reason=%q", pl.OK, pl.FailReason)
	}
}

func TestLoadFailureProbability(t *testing.T) {
	w := websim.NewWeb()
	for i := 0; i < 200; i++ {
		if err := w.AddSite(websim.Site{Domain: site(i), RenderMs: 1000}); err != nil {
			t.Fatal(err)
		}
	}
	cfg := DefaultConfig(5, "vol-jp")
	cfg.LoadFailureProb = 0.36 // Japan's observed failure rate
	b := New(w, cfg)
	failed := 0
	for i := 0; i < 200; i++ {
		if pl := b.Load(site(i)); !pl.OK {
			failed++
		}
	}
	if failed < 50 || failed > 95 {
		t.Errorf("failures = %d/200, want ~72", failed)
	}
	// Determinism: same seed+session gives identical outcomes.
	b2 := New(w, cfg)
	for i := 0; i < 200; i++ {
		if b.Load(site(i)).OK != b2.Load(site(i)).OK {
			t.Fatal("load outcomes must be deterministic")
		}
	}
}

func site(i int) string {
	return "site-" + string(rune('a'+i%26)) + "-" + string(rune('a'+(i/26)%26)) + ".example"
}

func TestBraveBlocksTrackers(t *testing.T) {
	w := testWeb(t)
	eng := filterlist.NewEngine(filterlist.ParseList("easyprivacy", "||trk.example^$third-party"))
	cfg := DefaultConfig(1, "vol-br")
	cfg.Kind = Brave
	cfg.Blocker = eng
	b := New(w, cfg)
	pl := b.Load("news.example.pk")
	if !pl.OK {
		t.Fatalf("load failed: %s", pl.FailReason)
	}
	var blockedTag, sawChild bool
	for _, r := range pl.Requests {
		if r.Domain == "tagmanager.trk.example" && r.Blocked {
			blockedTag = true
		}
		if r.Domain == "analytics.trk.example" {
			sawChild = true
		}
	}
	if !blockedTag {
		t.Error("Brave should block the tag manager request")
	}
	if sawChild {
		t.Error("blocked script must not trigger chained loads")
	}
	// Unblocked first-party assets still load.
	if len(requestedDomains(pl)) == 0 {
		t.Error("first-party assets should still be recorded")
	}
}

func TestMaxDepthBoundsChains(t *testing.T) {
	w := websim.NewWeb()
	// Build a 6-deep chain.
	leaf := websim.Resource{URL: "https://d6.example/x", Type: "xhr"}
	chain := leaf
	for i := 5; i >= 1; i-- {
		chain = websim.Resource{
			URL: "https://d" + string(rune('0'+i)) + ".example/s.js", Type: "script",
			Children: []websim.Resource{chain},
		}
	}
	if err := w.AddSite(websim.Site{Domain: "deep.example", RenderMs: 100, Resources: []websim.Resource{chain}}); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(1, "v")
	cfg.MaxDepth = 2
	b := New(w, cfg)
	pl := b.Load("deep.example")
	for _, r := range pl.Requests {
		if r.Domain == "d4.example" || r.Domain == "d6.example" {
			t.Errorf("depth limit exceeded: fetched %s", r.Domain)
		}
	}
}

func TestHARExport(t *testing.T) {
	w := testWeb(t)
	b := New(w, DefaultConfig(1, "vol-pk"))
	pl := b.Load("news.example.pk")
	start := time.Date(2024, 3, 16, 12, 0, 0, 0, time.UTC)
	har := ToHAR(pl, start)
	if har.Log.Version != "1.2" {
		t.Errorf("HAR version = %q", har.Log.Version)
	}
	if len(har.Log.Entries) != len(pl.Requests) {
		t.Errorf("entries = %d, want %d", len(har.Log.Entries), len(pl.Requests))
	}
	raw, err := har.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatalf("HAR JSON does not round-trip: %v", err)
	}
	if !strings.Contains(string(raw), "2024-03-16T12:00:00Z") {
		t.Error("HAR should anchor to the provided clock")
	}
}

func TestKindString(t *testing.T) {
	if Chrome.String() != "chrome" || Firefox.String() != "firefox" || Brave.String() != "brave" {
		t.Error("browser kind names wrong")
	}
}
