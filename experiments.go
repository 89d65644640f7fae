package gamma

import (
	"fmt"
	"io"
	"strings"

	"net/netip"
	"os"
	"path/filepath"

	"github.com/gamma-suite/gamma/internal/ablation"
	"github.com/gamma-suite/gamma/internal/analysis"
	"github.com/gamma-suite/gamma/internal/core"
	"github.com/gamma-suite/gamma/internal/geo"
	"github.com/gamma-suite/gamma/internal/report"
	"github.com/gamma-suite/gamma/internal/svg"
	"github.com/gamma-suite/gamma/internal/targets"
)

// RunAblation reruns the Box-2 pipeline with each geolocation constraint
// disabled in turn and scores every variant against the world's ground
// truth (precision / destination accuracy / recall).
func RunAblation(study *Study) ([]ablation.Metrics, error) {
	var datasets []*core.Dataset
	for _, cc := range study.World.SourceCountries() {
		if ds, ok := study.Datasets[cc]; ok {
			datasets = append(datasets, ds)
		}
	}
	truth := func(addr netip.Addr) (string, bool) {
		h, ok := study.World.Net.HostByAddr(addr)
		if !ok {
			return "", false
		}
		return h.City.Country, true
	}
	return ablation.Run(PipelineEnv(study.World), datasets, truth, nil)
}

// PolicyRegistry extracts the Table 1 policy metadata from the world.
func PolicyRegistry(w *World) map[string]analysis.PolicyInfo {
	out := make(map[string]analysis.PolicyInfo, len(w.Specs))
	for cc, spec := range w.Specs {
		out[cc] = analysis.PolicyInfo{
			Type:    string(spec.Policy),
			Enacted: spec.PolicyEnacted,
			Note:    spec.PolicyNote,
		}
	}
	return out
}

// OverlapExperiment runs the §3.2 ranking-source comparison on the world's
// ranking sources.
func OverlapExperiment(w *World) targets.OverlapResult {
	return targets.OverlapExperiment(targets.Sources{
		Similarweb: w.Rankings.Similarweb,
		Semrush:    w.Rankings.Semrush,
		Ahrefs:     w.Rankings.Ahrefs,
	})
}

// FullReport renders every figure and table of the study to w.
func FullReport(study *Study, w io.Writer) {
	res := study.Result
	fmt.Fprintf(w, "Gamma study report (seed %d)\n\n", study.World.Seed)

	report.Funnel(w, res.Funnel)
	fmt.Fprintln(w)

	ov := OverlapExperiment(study.World)
	fmt.Fprintln(w, "== §3.2: ranking-source overlap ==")
	fmt.Fprintf(w, "countries with complete lists: %d; semrush overlap %.1f%%, ahrefs overlap %.1f%%\n\n",
		ov.Countries, ov.SemrushPct, ov.AhrefsPct)

	report.Fig2(w, analysis.Fig2Composition(res), analysis.Fig2LoadSuccess(res))
	fmt.Fprintln(w)
	prev := analysis.Fig3Prevalence(res)
	report.Fig3(w, prev)
	fmt.Fprintln(w)
	report.Fig4(w, analysis.Fig4Distribution(res))
	fmt.Fprintln(w)
	report.Fig5(w, analysis.Fig5DestShares(res), analysis.Fig5CountryFlows(res), 20)
	fmt.Fprintln(w)
	report.Fig6(w, analysis.Fig6ContinentFlows(res, study.World.Registry))
	fmt.Fprintln(w)
	report.Fig7(w, analysis.Fig7HostingCounts(res))
	fmt.Fprintln(w)
	report.Fig8(w, analysis.Fig8OrgFlows(res), 15)
	fmt.Fprintln(w)
	report.Fig9(w, analysis.Fig9DomainFrequency(res), 3)
	fmt.Fprintln(w)
	report.Table1(w, analysis.Table1(prev, PolicyRegistry(study.World)))
	fmt.Fprintln(w)
	report.Ownership(w, analysis.Ownership(res))
	fmt.Fprintln(w)
	report.FirstParty(w, analysis.FirstParty(res))
	fmt.Fprintln(w, "\n== Research-question summary (regenerated from the data) ==")
	fmt.Fprint(w, analysis.RenderAnswers(analysis.Answers(res, study.World.Registry, PolicyRegistry(study.World))))
	if len(study.Datasets) > 0 {
		fmt.Fprintln(w)
		var datasets []*core.Dataset
		for _, cc := range study.World.SourceCountries() {
			if ds, ok := study.Datasets[cc]; ok {
				datasets = append(datasets, ds)
			}
		}
		report.Cookies(w, analysis.Cookies(datasets))
	}
}

// WriteFigures renders the flow figures and the prevalence bar chart as
// SVG files (fig3.svg, fig5.svg, fig6.svg, fig8.svg) into dir.
func WriteFigures(study *Study, dir string) error {
	res := study.Result
	files := map[string]string{
		"fig3.svg": svg.Fig3(analysis.Fig3Prevalence(res)),
		"fig5.svg": svg.Fig5(analysis.Fig5CountryFlows(res), 40),
		"fig6.svg": svg.Fig6(analysis.Fig6ContinentFlows(res, study.World.Registry)),
		"fig8.svg": svg.Fig8(analysis.Fig8OrgFlows(res), 40),
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// ExperimentRow is one paper-vs-measured comparison line.
type ExperimentRow struct {
	ID       string // table/figure identifier
	Metric   string
	Paper    string
	Measured string
	ShapeOK  bool // whether the qualitative claim reproduces
}

// CompareWithPaper evaluates every headline claim of the paper against the
// measured study and reports whether the qualitative shape holds.
func CompareWithPaper(study *Study) []ExperimentRow {
	res := study.Result
	w := study.World
	var rows []ExperimentRow
	add := func(id, metric, paper, measured string, ok bool) {
		rows = append(rows, ExperimentRow{ID: id, Metric: metric, Paper: paper, Measured: measured, ShapeOK: ok})
	}
	f := res.Funnel

	// ---- §3.2 ranking overlap ----
	ov := OverlapExperiment(w)
	add("§3.2", "semrush overlap with similarweb", "65%",
		fmt.Sprintf("%.1f%%", ov.SemrushPct), ov.SemrushPct > 55 && ov.SemrushPct < 75)
	add("§3.2", "ahrefs overlap with similarweb", "48%",
		fmt.Sprintf("%.1f%%", ov.AhrefsPct), ov.AhrefsPct > 38 && ov.AhrefsPct < 58 && ov.AhrefsPct < ov.SemrushPct)
	add("§3.2", "countries with complete lists", "58", fmt.Sprint(ov.Countries), ov.Countries == 58)
	sels := study.Selections
	common := targets.CommonSites(sels)
	universal := 0
	inTwoThirds := 0
	for _, d := range []string{"google.com", "wikipedia.org"} {
		if common[d] == len(sels) {
			universal++
		}
	}
	for _, d := range []string{"instagram.com", "youtube.com", "facebook.com", "openai.com", "twitter.com", "whatsapp.com", "linkedin.com"} {
		if common[d] >= 2*len(sels)/3 {
			inTwoThirds++
		}
	}
	add("§3.2", "sites common to all countries", "2 (google.com, wikipedia.org)",
		fmt.Sprint(universal), universal == 2)
	add("§3.2", "global sites in ≥2/3 of countries", "7", fmt.Sprint(inTwoThirds), inTwoThirds >= 5)

	// ---- §5 funnel ----
	add("§5", "target websites", "2005", fmt.Sprint(f.Targets), f.Targets > 1500 && f.Targets < 2600)
	optOutPct := 100 * float64(f.Targets-f.TargetsAfterOptOut) / float64(f.Targets)
	add("§5", "volunteer opt-outs", "0.99% of targets",
		fmt.Sprintf("%.2f%%", optOutPct), optOutPct > 0.3 && optOutPct < 2)
	add("§5", "unique targets", "1522", fmt.Sprint(f.UniqueTargets), f.UniqueTargets > 1200)
	add("§5", "domain observations / unique", "≈26K / ≈5K",
		fmt.Sprintf("%d / %d", f.DomainObservations, f.UniqueDomains),
		f.DomainObservations > 8000 && f.UniqueDomains > 3000)
	add("§5", "unique server IPs", "≈9K", fmt.Sprint(f.UniqueIPs), f.UniqueIPs > 1000)
	add("§5", "source traceroutes", "≈27K", fmt.Sprint(f.SourceTraceroutes), f.SourceTraceroutes > 12000)
	add("§5", "destination traceroutes", "≈3.4K", fmt.Sprint(f.DestTraceroutes), f.DestTraceroutes > 1500)
	add("§5", "non-local before constraints", "≈14K", fmt.Sprint(f.NonLocalClaimed), f.NonLocalClaimed > 3000)
	add("§5", "after SOL constraints", "≈6.1K (44% survive)",
		fmt.Sprintf("%d (%.0f%% survive)", f.AfterSOL, 100*float64(f.AfterSOL)/float64(max(1, f.NonLocalClaimed))),
		f.AfterSOL < f.NonLocalClaimed)
	add("§5", "after reverse-DNS constraint", "≈4.7K",
		fmt.Sprint(f.AfterRDNS), f.AfterRDNS < f.AfterSOL && f.AfterRDNS > 0)
	add("§5", "tracker-associated", "≈2.7K", fmt.Sprint(f.Trackers), f.Trackers < f.AfterRDNS && f.Trackers > 1000)
	listed, manual := 0, 0
	for _, src := range res.TrackerDomains {
		if src == "manual" {
			manual++
		} else {
			listed++
		}
	}
	add("§4.2", "identified tracker domains (list + manual)", "505 (441 + 64)",
		fmt.Sprintf("%d (%d + %d)", listed+manual, listed, manual),
		listed > manual && manual > 0)

	// ---- Fig 2b ----
	loads := analysis.Fig2LoadSuccess(res)
	var jpPct, saPct float64
	over86 := 0
	for _, l := range loads {
		switch l.Country {
		case "JP":
			jpPct = l.Pct
		case "SA":
			saPct = l.Pct
		}
		if l.Pct >= 86 {
			over86++
		}
	}
	add("Fig 2b", "typical load success", ">86% in most countries",
		fmt.Sprintf("%d/23 countries above 86%%", over86), over86 >= 15)
	add("Fig 2b", "Japan load success", "64%", fmt.Sprintf("%.0f%%", jpPct), jpPct < 75)
	add("Fig 2b", "Saudi Arabia load success", "56%", fmt.Sprintf("%.0f%%", saPct), saPct < 70)

	// ---- Fig 3 ----
	prev := analysis.Fig3Prevalence(res)
	byCC := map[string]analysis.Prevalence{}
	var regs, govs []float64
	for _, p := range prev {
		byCC[p.Country] = p
		regs = append(regs, p.RegionalPct)
		govs = append(govs, p.GovernmentPct)
	}
	rm, rs := analysis.MeanStd(regs)
	gm, gs := analysis.MeanStd(govs)
	add("Fig 3", "regional prevalence mean (σ)", "46.16% (33.77)",
		fmt.Sprintf("%.2f%% (%.2f)", rm, rs), rm > 30 && rm < 60 && rs > 20)
	add("Fig 3", "government prevalence mean (σ)", "40.21% (31.5)",
		fmt.Sprintf("%.2f%% (%.2f)", gm, gs), gm > 25 && gm < 55 && gs > 18)
	corr, _ := analysis.Fig3Correlation(prev)
	add("Fig 3", "regional/government correlation", "0.89", fmt.Sprintf("%.2f", corr), corr > 0.7)
	add("Fig 3", "Canada & USA regional prevalence", "0%",
		fmt.Sprintf("CA %.0f%%, US %.0f%%", byCC["CA"].RegionalPct, byCC["US"].RegionalPct),
		byCC["CA"].RegionalPct == 0 && byCC["US"].RegionalPct == 0)
	add("Fig 3", "Rwanda regional prevalence", "93%",
		fmt.Sprintf("%.0f%%", byCC["RW"].RegionalPct), byCC["RW"].RegionalPct > 75)
	add("Fig 3", "New Zealand regional prevalence", "81%",
		fmt.Sprintf("%.0f%%", byCC["NZ"].RegionalPct), byCC["NZ"].RegionalPct > 65)
	add("Fig 3", "India relies on local servers", "≈1%",
		fmt.Sprintf("%.1f%%", byCC["IN"].OverallPct), byCC["IN"].OverallPct < 6)

	// ---- Fig 4 ----
	dist := analysis.Fig4Distribution(res)
	byD := map[string]analysis.Distribution{}
	for _, d := range dist {
		byD[d.Country] = d
	}
	add("Fig 4", "Jordan mean trackers/site", "15.7 (σ 12)",
		fmt.Sprintf("%.1f (σ %.1f)", byD["JO"].Combined.Mean, byD["JO"].Combined.StdDev),
		byD["JO"].Combined.Mean > 8)
	add("Fig 4", "Egypt mean trackers/site", "12.1 (σ 8.5)",
		fmt.Sprintf("%.1f (σ %.1f)", byD["EG"].Combined.Mean, byD["EG"].Combined.StdDev),
		byD["EG"].Combined.Mean > 7)
	add("Fig 4", "Australia/Taiwan/Argentina low counts", "1-3",
		fmt.Sprintf("AU %.1f, TW %.1f, AR %.1f", byD["AU"].Combined.Mean, byD["TW"].Combined.Mean, byD["AR"].Combined.Mean),
		byD["AU"].Combined.Mean < 5 && byD["TW"].Combined.Mean < 5 && byD["AR"].Combined.Mean < 5)
	posSkew := 0
	for _, d := range dist {
		if d.Skewness > 0 {
			posSkew++
		}
	}
	add("Fig 4", "most countries positively skewed", "concentration of low values",
		fmt.Sprintf("%d/%d countries with positive skew", posSkew, len(dist)), posSkew >= len(dist)*3/5)

	// ---- Fig 5 ----
	shares := analysis.Fig5DestShares(res)
	shareOf := func(cc string) analysis.DestShare {
		for _, s := range shares {
			if s.Dest == cc {
				return s
			}
		}
		return analysis.DestShare{Dest: cc}
	}
	fr, de, gb, ke, us, au := shareOf("FR"), shareOf("DE"), shareOf("GB"), shareOf("KE"), shareOf("US"), shareOf("AU")
	add("Fig 5", "France is the top destination", "43% of tracking sites",
		fmt.Sprintf("%.1f%% (rank 1: %v)", fr.SitePct, shares[0].Dest == "FR"),
		shares[0].Dest == "FR")
	add("Fig 5", "UK share", "24%", fmt.Sprintf("%.1f%%", gb.SitePct), gb.SitePct > 12 && gb.SitePct < 40)
	add("Fig 5", "Germany share", "23%", fmt.Sprintf("%.1f%%", de.SitePct), de.SitePct > 12 && de.SitePct < 45)
	add("Fig 5", "Kenya share (UG/RW regional hub)", "14%", fmt.Sprintf("%.1f%%", ke.SitePct), ke.SitePct > 7 && ke.SitePct < 22)
	add("Fig 5", "Australia share (NZ-dominated)", "23%", fmt.Sprintf("%.1f%%", au.SitePct), au.SitePct > 6)
	add("Fig 5", "USA receives small flows from many sources", "5% of sites, 15 sources",
		fmt.Sprintf("%.1f%% of sites, %d sources", us.SitePct, us.SourceCount),
		us.SitePct < 12 && us.SourceCount >= 10)
	add("Fig 5", "France receives from many sources", "15 source countries",
		fmt.Sprint(fr.SourceCount), fr.SourceCount >= 12)
	add("Fig 5", "US gov flows only from the UAE", "UAE only",
		fmt.Sprintf("gov-source-only=%s", us.GovSourceOnly), us.GovSourceOnly == "AE")

	// ---- Fig 6 ----
	cont := analysis.Fig6ContinentFlows(res, w.Registry)
	inward := analysis.InwardFlowContinents(cont)
	add("Fig 6", "Europe receives inward flow from all other continents", "5 source continents",
		fmt.Sprintf("%d source continents", len(inward[geo.Europe])), len(inward[geo.Europe]) >= 4)
	add("Fig 6", "Africa receives no inward flow", "0 external sources",
		fmt.Sprintf("%d external sources", len(inward[geo.Africa])), len(inward[geo.Africa]) == 0)

	// ---- Fig 7 ----
	hosting := analysis.Fig7HostingCounts(res)
	hostOf := func(cc string) int {
		for _, h := range hosting {
			if h.Dest == cc {
				return h.Domains
			}
		}
		return 0
	}
	topHost := ""
	if len(hosting) > 0 {
		topHost = hosting[0].Dest
	}
	add("Fig 7", "Kenya hosts the most distinct tracking domains", "210 (rank 1)",
		fmt.Sprintf("%d (rank 1 = %s)", hostOf("KE"), topHost),
		hostOf("KE") > 80 && (topHost == "KE" || topHost == "DE" || topHost == "FR"))
	add("Fig 7", "Germany hosts many distinct domains", "172",
		fmt.Sprint(hostOf("DE")), hostOf("DE") > 60)
	add("Fig 7", "Malaysia is a Southeast-Asian hub", "89",
		fmt.Sprint(hostOf("MY")), hostOf("MY") > 25)
	add("Fig 7", "USA hosts few distinct domains", "16",
		fmt.Sprint(hostOf("US")), hostOf("US") < hostOf("DE") && hostOf("US") < 40)

	// ---- Fig 8 ----
	orgFlows := analysis.Fig8OrgFlows(res)
	totals := analysis.OrgTotals(orgFlows)
	majorsTop := len(totals) > 0 && totals[0].Org == "Google"
	add("Fig 8", "Google dominates organizations", "largest org",
		fmt.Sprintf("top org = %s", totals[0].Org), majorsTop)
	excl := analysis.ExclusiveOrgs(orgFlows)
	joExcl := 0
	for _, cc := range excl {
		if cc == "JO" {
			joExcl++
		}
	}
	add("Fig 8", "Jordan-exclusive orgs (Jubnaadserve, Onetag, Optad360)", "3",
		fmt.Sprint(joExcl), joExcl >= 2)

	// ---- Table 1 ----
	t1 := analysis.Table1(prev, PolicyRegistry(w))
	trend, _ := analysis.PolicyTrend(t1)
	add("Table 1", "no positive policy impact (stricter ⇒ MORE non-local)", "weak negative trend for permissiveness",
		fmt.Sprintf("strictness/non-local correlation %.2f", trend), trend > 0)

	// ---- §6.5 ----
	own := analysis.Ownership(res)
	add("§6.5", "distinct owner organizations", "≈70", fmt.Sprint(own.Orgs), own.Orgs > 40)
	add("§6.5", "US share of owner orgs", "50%",
		fmt.Sprintf("%.0f%%", own.HQSharePct["US"]), own.HQSharePct["US"] > 35 && own.HQSharePct["US"] < 65)
	add("§6.5", "UK share of owner orgs", "10%",
		fmt.Sprintf("%.0f%%", own.HQSharePct["GB"]), own.HQSharePct["GB"] > 4 && own.HQSharePct["GB"] < 20)
	add("§6.5", "trackers on AWS / Google Cloud", "50 / 5",
		fmt.Sprintf("%d / %d", own.AWSTrackers, own.GCPTrackers), own.AWSTrackers > own.GCPTrackers && own.AWSTrackers > 10)
	add("§6.5", "AWS-hosted trackers in Nairobi serve UG/RW", "SoundCloud, Spot.im, Snapchat, ScorecardResearch, Lotame",
		strings.Join(own.KenyaAWSOrgs, ", "), len(own.KenyaAWSOrgs) >= 3)

	// ---- §6.7 ----
	fp := analysis.FirstParty(res)
	googleShare := 0.0
	if fp.SitesWithFirstParty > 0 {
		googleShare = 100 * float64(fp.ByOrg["Google"]) / float64(fp.SitesWithFirstParty)
	}
	add("§6.7", "sites with non-local trackers", "575",
		fmt.Sprint(fp.SitesWithNonLocal), fp.SitesWithNonLocal > 300)
	add("§6.7", "sites embedding first-party non-local trackers", "23",
		fmt.Sprint(fp.SitesWithFirstParty),
		fp.SitesWithFirstParty > 3 && fp.SitesWithFirstParty < fp.SitesWithNonLocal/5)
	add("§6.7", "share of first-party sites owned by Google", "≈50%",
		fmt.Sprintf("%.0f%%", googleShare), googleShare > 25)

	return rows
}

// WriteExperimentsMarkdown emits the paper-vs-measured table as Markdown.
func WriteExperimentsMarkdown(study *Study, w io.Writer) {
	rows := CompareWithPaper(study)
	fmt.Fprintf(w, "| ID | Metric | Paper | Measured (seed %d) | Shape |\n", study.World.Seed)
	fmt.Fprintln(w, "|---|---|---|---|---|")
	okCount := 0
	for _, r := range rows {
		mark := "✅"
		if !r.ShapeOK {
			mark = "⚠️"
		} else {
			okCount++
		}
		fmt.Fprintf(w, "| %s | %s | %s | %s | %s |\n", r.ID, r.Metric, r.Paper, r.Measured, mark)
	}
	fmt.Fprintf(w, "\n%d/%d qualitative claims reproduce.\n", okCount, len(rows))
}
