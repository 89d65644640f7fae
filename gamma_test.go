package gamma_test

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	gamma "github.com/gamma-suite/gamma"
	"github.com/gamma-suite/gamma/internal/analysis"
	"github.com/gamma-suite/gamma/internal/core"
)

// The full study is expensive (~1 s); run it once and share.
var studyOnce *gamma.Study

func fullStudy(t *testing.T) *gamma.Study {
	t.Helper()
	if studyOnce == nil {
		s, err := gamma.RunStudy(context.Background(), 42)
		if err != nil {
			t.Fatalf("RunStudy: %v", err)
		}
		studyOnce = s
	}
	return studyOnce
}

func TestRunStudyEndToEnd(t *testing.T) {
	study := fullStudy(t)
	if len(study.Datasets) != 23 {
		t.Fatalf("datasets = %d, want 23", len(study.Datasets))
	}
	if len(study.Result.Countries) != 23 {
		t.Fatalf("analyzed countries = %d", len(study.Result.Countries))
	}
	f := study.Result.Funnel
	if f.Targets < 1900 || f.LoadedOK < 1500 {
		t.Errorf("funnel too small: %+v", f)
	}
	if f.Trackers < 1000 {
		t.Errorf("trackers = %d, want thousands", f.Trackers)
	}
}

func TestSelectTargetsShape(t *testing.T) {
	study := fullStudy(t)
	for cc, sel := range study.Selections {
		if len(sel.Regional) != 50 {
			t.Errorf("%s regional targets = %d, want 50", cc, len(sel.Regional))
		}
		if len(sel.Government) == 0 || len(sel.Government) > 50 {
			t.Errorf("%s government targets = %d", cc, len(sel.Government))
		}
		for _, tg := range sel.Regional {
			if strings.HasPrefix(tg.Domain, "adult-") {
				t.Errorf("%s: adult site %s not filtered", cc, tg.Domain)
			}
		}
	}
	// Gov-sparse countries end up with short T_gov lists (Fig 2a).
	if n := len(study.Selections["LB"].Government); n > 20 {
		t.Errorf("Lebanon gov targets = %d, want sparse", n)
	}
	// The fallback source is used where similarweb has no ranking.
	if src := study.Selections["RW"].RegionalSource; src != "semrush" {
		t.Errorf("Rwanda regional source = %q, want semrush", src)
	}
	if src := study.Selections["PK"].RegionalSource; src != "similarweb" {
		t.Errorf("Pakistan regional source = %q, want similarweb", src)
	}
}

func TestPaperClaimsReproduce(t *testing.T) {
	study := fullStudy(t)
	rows := gamma.CompareWithPaper(study)
	if len(rows) < 50 {
		t.Fatalf("comparison rows = %d", len(rows))
	}
	ok := 0
	for _, r := range rows {
		if r.ShapeOK {
			ok++
		} else {
			t.Logf("shape mismatch: %s %s: paper %s vs measured %s", r.ID, r.Metric, r.Paper, r.Measured)
		}
	}
	if ok < len(rows)-4 {
		t.Errorf("only %d/%d paper claims reproduce", ok, len(rows))
	}
}

func TestStudyDeterminism(t *testing.T) {
	a, err := gamma.RunStudy(context.Background(), 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := gamma.RunStudy(context.Background(), 7)
	if err != nil {
		t.Fatal(err)
	}
	fa, fb := a.Result.Funnel, b.Result.Funnel
	if fa != fb {
		t.Errorf("funnels differ between identical seeds:\n%+v\n%+v", fa, fb)
	}
	for cc := range a.Result.Countries {
		if len(a.Result.Countries[cc].Verdicts) != len(b.Result.Countries[cc].Verdicts) {
			t.Errorf("%s verdict counts differ", cc)
		}
	}
}

func TestDifferentSeedsDifferentWorlds(t *testing.T) {
	study := fullStudy(t)
	other, err := gamma.RunStudy(context.Background(), 1234)
	if err != nil {
		t.Fatal(err)
	}
	if study.Result.Funnel == other.Result.Funnel {
		t.Error("different seeds should produce different funnels")
	}
	// But the qualitative shape must hold for any seed.
	rows := gamma.CompareWithPaper(other)
	ok := 0
	for _, r := range rows {
		if r.ShapeOK {
			ok++
		}
	}
	if ok < len(rows)*8/10 {
		t.Errorf("seed 1234: only %d/%d claims reproduce", ok, len(rows))
	}
}

func TestRunVolunteerOptOuts(t *testing.T) {
	study := fullStudy(t)
	ds := study.Datasets["EG"]
	optOuts := 0
	for _, p := range ds.Pages {
		if p.OptedOut {
			optOuts++
		}
		if len(p.Traceroutes) != 0 {
			t.Fatal("Egypt opted out of traceroutes; none should be recorded")
		}
	}
	if optOuts != 3 {
		t.Errorf("EG site opt-outs = %d, want 3", optOuts)
	}
}

// TestVolunteerDatasetRoundTrip: every dataset the study records, with
// its parsed traceroutes and pre-sized DNS and traceroute lists, loads
// back deep-equal to what was saved.
func TestVolunteerDatasetRoundTrip(t *testing.T) {
	study := fullStudy(t)
	dir := t.TempDir()
	for cc, ds := range study.Datasets {
		path := dir + "/" + cc + ".json"
		if err := core.SaveDataset(path, ds); err != nil {
			t.Fatal(err)
		}
		loaded, err := core.LoadDataset(path)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(loaded, ds) {
			t.Errorf("%s: dataset round-trip mismatch", cc)
		}
	}
}

// TestRunVolunteerSession: an untagged session is RunVolunteer, byte for
// byte; a tagged session is deterministic, carries its tag in the
// volunteer ID, and shares the world's parse memo like every other run.
func TestRunVolunteerSession(t *testing.T) {
	ctx := context.Background()
	w, err := gamma.NewWorld(42)
	if err != nil {
		t.Fatal(err)
	}
	sels, err := gamma.SelectTargets(w)
	if err != nil {
		t.Fatal(err)
	}
	const cc = "NZ"
	vol := w.Volunteers[cc]
	marshal := func(ds *gamma.Dataset, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(ds)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	plain := marshal(gamma.RunVolunteer(ctx, w, cc, sels[cc]))
	if got := marshal(gamma.RunVolunteerSession(ctx, w, vol, sels[cc], "")); !bytes.Equal(got, plain) {
		t.Error("an untagged session must record exactly what RunVolunteer records")
	}

	before := w.Pages.Stats()
	ds, err := gamma.RunVolunteerSession(ctx, w, vol, sels[cc], "run-2")
	tagged := marshal(ds, err)
	after := w.Pages.Stats()
	if after.Hits+after.Misses <= before.Hits+before.Misses {
		t.Error("a tagged session must load pages through the world's parse memo")
	}
	if want := vol.VantageID + "/run-2"; ds.VolunteerID != want {
		t.Errorf("VolunteerID = %q, want %q", ds.VolunteerID, want)
	}
	if again := marshal(gamma.RunVolunteerSession(ctx, w, vol, sels[cc], "run-2")); !bytes.Equal(again, tagged) {
		t.Error("a tagged session must be deterministic")
	}
}

func TestFullReportRenders(t *testing.T) {
	study := fullStudy(t)
	var sb strings.Builder
	gamma.FullReport(study, &sb)
	out := sb.String()
	for _, want := range []string{
		"Figure 2", "Figure 3", "Figure 4", "Figure 5", "Figure 6",
		"Figure 7", "Figure 8", "Figure 9", "Table 1", "funnel",
		"ranking-source overlap", "first-party",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if len(out) < 10000 {
		t.Errorf("report suspiciously short: %d bytes", len(out))
	}
}

func TestExperimentsMarkdown(t *testing.T) {
	study := fullStudy(t)
	var sb strings.Builder
	gamma.WriteExperimentsMarkdown(study, &sb)
	out := sb.String()
	if !strings.Contains(out, "| ID | Metric | Paper |") {
		t.Error("markdown header missing")
	}
	if !strings.Contains(out, "claims reproduce") {
		t.Error("summary line missing")
	}
}

func TestPolicyRegistryComplete(t *testing.T) {
	study := fullStudy(t)
	reg := gamma.PolicyRegistry(study.World)
	if len(reg) != 23 {
		t.Fatalf("policy registry has %d countries", len(reg))
	}
	wantTypes := map[string]string{"AZ": "CS", "EG": "PA", "RU": "AC", "US": "TA", "LB": "NR"}
	for cc, typ := range wantTypes {
		if reg[cc].Type != typ {
			t.Errorf("%s policy = %s, want %s", cc, reg[cc].Type, typ)
		}
	}
	// Laws not yet in effect (Table 1 footnotes).
	for _, cc := range []string{"IN", "PK", "TH"} {
		if reg[cc].Enacted {
			t.Errorf("%s law should not be enacted yet", cc)
		}
	}
}

func TestRegionalContentVariation(t *testing.T) {
	// §8: the same site can embed different trackers in different
	// countries. youtube.com's Azerbaijan variant is the built-in example.
	study := fullStudy(t)
	// World-level: the AZ variant of youtube.com embeds ~32 Google
	// tracking hostnames while the default page embeds only cache assets.
	yt, ok := study.World.Web.Site("youtube.com")
	if !ok {
		t.Fatal("youtube.com missing from the web")
	}
	countTrackers := func(cc string) int {
		n := 0
		for _, r := range yt.ResourcesFor(cc) {
			if _, isT := study.World.TrackerHostnames[r.Domain()]; isT {
				n++
			}
			for _, c := range r.Children {
				if _, isT := study.World.TrackerHostnames[c.Domain()]; isT {
					n++
				}
			}
		}
		return n
	}
	if az := countTrackers("AZ"); az < 25 {
		t.Errorf("AZ youtube variant trackers = %d, want ~32", az)
	}
	// Measurement-level: when the AZ volunteer's load succeeded, the
	// outlier shows up in the analyzed corpus too.
	for _, s := range study.Result.Countries["AZ"].Sites {
		if s.Site == "youtube.com" && s.LoadOK {
			if n := len(s.NonLocalTrackers()); n < 15 {
				t.Errorf("AZ youtube measured non-local trackers = %d, want ~32", n)
			}
		}
	}
}

func TestFirstPartyExamplesMatchPaperShape(t *testing.T) {
	study := fullStudy(t)
	fp := analysis.FirstParty(study.Result)
	if fp.SitesWithFirstParty == 0 {
		t.Fatal("no first-party non-local sites")
	}
	if fp.ByOrg["Google"] == 0 {
		t.Error("Google ccTLD sites should appear among first-party cases")
	}
	if fp.SitesWithFirstParty > fp.SitesWithNonLocal/5 {
		t.Errorf("first-party sites (%d) should be a small minority of %d",
			fp.SitesWithFirstParty, fp.SitesWithNonLocal)
	}
}
