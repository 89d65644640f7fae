package gamma_test

// The benchmark harness regenerates every table and figure in the paper's
// evaluation (see DESIGN.md's per-experiment index). Each benchmark times
// the computation that produces one artifact and reports its headline
// metric via b.ReportMetric, so `go test -bench=. -benchmem` doubles as the
// reproduction run: the printed metrics are the numbers EXPERIMENTS.md
// compares against the paper.

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"

	gamma "github.com/gamma-suite/gamma"
	"github.com/gamma-suite/gamma/internal/ablation"
	"github.com/gamma-suite/gamma/internal/analysis"
	"github.com/gamma-suite/gamma/internal/cbg"
	"github.com/gamma-suite/gamma/internal/core"
	"github.com/gamma-suite/gamma/internal/geo"
	"github.com/gamma-suite/gamma/internal/pipeline"
	"github.com/gamma-suite/gamma/internal/targets"
)

var (
	benchOnce  sync.Once
	benchStudy *gamma.Study
	benchErr   error
)

// study builds the full 23-country corpus once, outside every timer.
func study(b *testing.B) *gamma.Study {
	b.Helper()
	benchOnce.Do(func() {
		benchStudy, benchErr = gamma.RunStudy(context.Background(), 42)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchStudy
}

// ---- Figure 2 ----

func BenchmarkFig2TargetComposition(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	var comp []analysis.Composition
	for i := 0; i < b.N; i++ {
		comp = analysis.Fig2Composition(s.Result)
	}
	b.ReportMetric(float64(len(comp)), "countries")
}

func BenchmarkFig2LoadSuccess(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	var loads []analysis.LoadSuccess
	for i := 0; i < b.N; i++ {
		loads = analysis.Fig2LoadSuccess(s.Result)
	}
	var jp float64
	for _, l := range loads {
		if l.Country == "JP" {
			jp = l.Pct
		}
	}
	b.ReportMetric(jp, "japan_load_pct")
}

// ---- Figure 3 ----

func BenchmarkFig3Prevalence(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	var prev []analysis.Prevalence
	for i := 0; i < b.N; i++ {
		prev = analysis.Fig3Prevalence(s.Result)
	}
	corr, _ := analysis.Fig3Correlation(prev)
	b.ReportMetric(corr, "reg_gov_correlation")
}

// ---- Figure 4 ----

func BenchmarkFig4PerSiteDistribution(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	var dist []analysis.Distribution
	for i := 0; i < b.N; i++ {
		dist = analysis.Fig4Distribution(s.Result)
	}
	var jo float64
	for _, d := range dist {
		if d.Country == "JO" {
			jo = d.Combined.Mean
		}
	}
	b.ReportMetric(jo, "jordan_mean_trackers")
}

// ---- Figure 5 ----

func BenchmarkFig5CountryFlows(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	var shares []analysis.DestShare
	for i := 0; i < b.N; i++ {
		shares = analysis.Fig5DestShares(s.Result)
	}
	var fr float64
	for _, sh := range shares {
		if sh.Dest == "FR" {
			fr = sh.SitePct
		}
	}
	b.ReportMetric(fr, "france_site_pct")
}

// ---- Figure 6 ----

func BenchmarkFig6ContinentFlows(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	var flows []analysis.ContinentFlow
	for i := 0; i < b.N; i++ {
		flows = analysis.Fig6ContinentFlows(s.Result, s.World.Registry)
	}
	inward := analysis.InwardFlowContinents(flows)
	b.ReportMetric(float64(len(inward["Europe"])), "europe_inward_sources")
}

// ---- Figure 7 ----

func BenchmarkFig7HostingCountries(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	var counts []analysis.HostingCount
	for i := 0; i < b.N; i++ {
		counts = analysis.Fig7HostingCounts(s.Result)
	}
	var ke float64
	for _, h := range counts {
		if h.Dest == "KE" {
			ke = float64(h.Domains)
		}
	}
	b.ReportMetric(ke, "kenya_domains")
}

// ---- Figure 8 ----

func BenchmarkFig8OrgFlows(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	var flows []analysis.OrgFlow
	for i := 0; i < b.N; i++ {
		flows = analysis.Fig8OrgFlows(s.Result)
	}
	totals := analysis.OrgTotals(flows)
	b.ReportMetric(float64(totals[0].Sites), "top_org_sites")
}

// ---- Figure 9 ----

func BenchmarkFig9DomainFrequency(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	var freqs []analysis.DomainFrequency
	for i := 0; i < b.N; i++ {
		freqs = analysis.Fig9DomainFrequency(s.Result)
	}
	b.ReportMetric(float64(len(freqs)), "countries")
}

// ---- Table 1 ----

func BenchmarkTable1PolicyImpact(b *testing.B) {
	s := study(b)
	policies := gamma.PolicyRegistry(s.World)
	b.ResetTimer()
	var trend float64
	for i := 0; i < b.N; i++ {
		prev := analysis.Fig3Prevalence(s.Result)
		rows := analysis.Table1(prev, policies)
		trend, _ = analysis.PolicyTrend(rows)
	}
	b.ReportMetric(trend, "strictness_correlation")
}

// ---- §3.2 ranking overlap ----

func BenchmarkSec32RankingOverlap(b *testing.B) {
	s := study(b)
	src := targets.Sources{
		Similarweb: s.World.Rankings.Similarweb,
		Semrush:    s.World.Rankings.Semrush,
		Ahrefs:     s.World.Rankings.Ahrefs,
	}
	b.ResetTimer()
	var res targets.OverlapResult
	for i := 0; i < b.N; i++ {
		res = targets.OverlapExperiment(src)
	}
	b.ReportMetric(res.SemrushPct, "semrush_overlap_pct")
	b.ReportMetric(res.AhrefsPct, "ahrefs_overlap_pct")
}

// ---- §5 funnel: the full Box-2 pipeline over all 23 datasets ----

func BenchmarkSec5Funnel(b *testing.B) {
	s := study(b)
	env := gamma.PipelineEnv(s.World)
	var datasets []*core.Dataset
	for _, cc := range s.World.SourceCountries() {
		datasets = append(datasets, s.Datasets[cc])
	}
	b.ResetTimer()
	var res *pipeline.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = pipeline.Process(env, datasets)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Funnel.Trackers), "tracker_domains")
	b.ReportMetric(float64(res.Funnel.AfterRDNS), "retained_non_local")
}

// ---- §6.5 organizations ----

func BenchmarkSec65Organizations(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	var own analysis.OwnershipStats
	for i := 0; i < b.N; i++ {
		own = analysis.Ownership(s.Result)
	}
	b.ReportMetric(float64(own.Orgs), "owner_orgs")
	b.ReportMetric(own.HQSharePct["US"], "us_hq_share_pct")
}

// ---- §6.7 first party ----

func BenchmarkSec67FirstParty(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	var fp analysis.FirstPartyStats
	for i := 0; i < b.N; i++ {
		fp = analysis.FirstParty(s.Result)
	}
	b.ReportMetric(float64(fp.SitesWithFirstParty), "first_party_sites")
}

// ---- End-to-end and component benchmarks ----

// BenchmarkRunStudy times the entire paper: world build, 23 volunteers,
// full analysis.
func BenchmarkRunStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := gamma.RunStudy(context.Background(), uint64(100+i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunStudyEndToEnd is the fixed-seed profiling benchmark: one
// full study — world build, 23 volunteer campaigns at default workers,
// Box-2 analysis — per iteration, always on the same seed so successive
// runs (and the before/after numbers in BENCH_9.json) are comparable.
func BenchmarkRunStudyEndToEnd(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		study, err := gamma.RunStudy(context.Background(), 42)
		if err != nil {
			b.Fatal(err)
		}
		if study.Result == nil {
			b.Fatal("no result")
		}
	}
}

// BenchmarkWorldBuild times synthetic-world generation alone.
func BenchmarkWorldBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := gamma.NewWorld(uint64(200 + i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunVolunteer times one country's full measurement (C1+C2+C3).
func BenchmarkRunVolunteer(b *testing.B) {
	s := study(b)
	sel := s.Selections["TH"]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gamma.RunVolunteer(context.Background(), s.World, "TH", sel); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationConstraints times the constraint-ablation experiment:
// six pipeline variants scored against ground truth.
func BenchmarkAblationConstraints(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	var metrics []ablation.Metrics
	for i := 0; i < b.N; i++ {
		var err error
		metrics, err = gamma.RunAblation(s)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, m := range metrics {
		if m.Variant == "full cascade" {
			b.ReportMetric(m.PrecisionPct, "full_cascade_precision_pct")
			b.ReportMetric(m.RecallPct, "full_cascade_recall_pct")
		}
	}
}

// BenchmarkCBGLocate times one constraint-based multilateration.
func BenchmarkCBGLocate(b *testing.B) {
	reg := geo.Default()
	truth, _ := reg.City("Amsterdam, NL")
	var ms []cbg.Measurement
	for _, id := range []string{"Frankfurt, DE", "Paris, FR", "London, GB", "Copenhagen, DK", "Warsaw, PL"} {
		c, _ := reg.City(id)
		d := geo.DistanceKm(c.Coord, truth.Coord)
		ms = append(ms, cbg.Measurement{Probe: c.Coord, RTTMs: geo.MinRTTMs(d)*1.8 + 1})
	}
	b.ResetTimer()
	var est cbg.Estimate
	for i := 0; i < b.N; i++ {
		est = cbg.Locate(ms, cbg.DefaultConfig())
	}
	b.ReportMetric(est.RadiusKm, "uncertainty_km")
}

// BenchmarkFullReport times rendering every figure and table.
func BenchmarkFullReport(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gamma.FullReport(s, io.Discard)
	}
}

// ---- Campaign scheduler ----

// BenchmarkScheduledStudy sweeps the campaign scheduler's worker count over
// the full 23-volunteer study. Datasets are byte-identical at every width
// (the determinism tests assert it); this measures the wall-clock effect
// alone.
func BenchmarkScheduledStudy(b *testing.B) {
	for _, workers := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s, err := gamma.RunStudyWithOptions(context.Background(), uint64(300+i), gamma.StudyOptions{
					Workers: workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(s.Sched.Attempts), "volunteer_attempts")
			}
		})
	}
}

// BenchmarkScheduledStudyFaulty measures the retry overhead of running the
// study through injected transient faults: each fault ends its volunteer's
// attempt, and the campaign's volunteer retry resumes from the failed
// target. The extra attempts (Study.Sched) are pure overhead against the
// fault-free run above.
func BenchmarkScheduledStudyFaulty(b *testing.B) {
	for _, rate := range []float64{0.01, faultRate} {
		b.Run(fmt.Sprintf("rate=%v", rate), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				seed := uint64(300 + i)
				s, err := gamma.RunStudyWithOptions(context.Background(), seed, gamma.StudyOptions{
					Workers: 4,
					EnvHook: faultyHook(seed, rate),
					Retry:   faultRetry,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(s.Sched.Retries), "volunteer_retries")
			}
		})
	}
}
