// Command gamma runs the volunteer measurement suite for one source
// country against the synthetic world, exactly as a field volunteer would
// run the tool against the real Internet: it loads every target website,
// records the network requests, resolves forward and reverse DNS, launches
// traceroutes to every resolved IP, and writes the uploadable JSON dataset.
//
// Usage:
//
//	gamma -country PK -seed 42 -out data/pk.json
//	gamma -country PK -seed 42 -out data/pk.json -resume   # continue a run
//	gamma -country PK -seed 42 -out data/pk.json -analyze  # preview Box 2
//
// -resume only continues a dataset recorded by the same volunteer against
// the same target list (the same seed); any other file is left untouched.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	gamma "github.com/gamma-suite/gamma"
	"github.com/gamma-suite/gamma/internal/browser"
	"github.com/gamma-suite/gamma/internal/consent"
	"github.com/gamma-suite/gamma/internal/core"
	"github.com/gamma-suite/gamma/internal/sched"
)

func main() {
	var (
		country = flag.String("country", "", "source country code (e.g. PK); required")
		seed    = flag.Uint64("seed", 42, "world seed")
		out     = flag.String("out", "", "output dataset path (JSON); required")
		resume  = flag.Bool("resume", false, "resume an interrupted run from -out")
		anon    = flag.Bool("anonymize", false, "strip the volunteer IP before writing")
		harDir  = flag.String("har", "", "also write one HAR file per loaded page into this directory")
		chunk   = flag.Int("chunk", 0, "measure at most N pending targets this session (0 = all)")

		analyze  = flag.Bool("analyze", false, "after recording, run the Box-2 pipeline over this dataset and print the funnel")
		aworkers = flag.Int("analysis-workers", 0, "analysis worker pool size for -analyze; 0 = GOMAXPROCS, 1 = serial")

		showConsent = flag.Bool("show-consent", false, "print the consent document and exit")
		consentPath = flag.String("consent", "", "path to the consent acceptance record (create with -accept)")
		accept      = flag.Bool("accept", false, "record acceptance of the consent document at -consent and exit")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile at exit to this file")
		traceFile  = flag.String("trace", "", "write a runtime execution trace of the run to this file")
	)
	flag.Parse()
	if *showConsent {
		fmt.Print(consent.Document(consent.DefaultStudy()))
		return
	}
	if *accept {
		if *consentPath == "" || *country == "" {
			fmt.Fprintln(os.Stderr, "gamma: -accept needs -consent PATH and -country")
			os.Exit(2)
		}
		doc := consent.Document(consent.DefaultStudy())
		a := consent.Accept("vol-"+strings.ToLower(*country), doc, sched.Wall().Now())
		if err := consent.Save(*consentPath, a); err != nil {
			fmt.Fprintln(os.Stderr, "gamma:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "consent recorded at %s\n", *consentPath)
		return
	}
	if *country == "" || *out == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *chunk < 0 {
		fmt.Fprintf(os.Stderr, "gamma: -chunk must not be negative, got %d (leave 0 to measure every pending target)\n", *chunk)
		flag.Usage()
		os.Exit(2)
	}
	if *consentPath != "" {
		a, err := consent.Load(*consentPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gamma:", err)
			os.Exit(1)
		}
		if !a.Covers(consent.Document(consent.DefaultStudy())) {
			fmt.Fprintln(os.Stderr, "gamma: consent record does not match the current consent document; re-run -accept")
			os.Exit(1)
		}
	}
	stopProfiling, err := startProfiling(*cpuProfile, *memProfile, *traceFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gamma:", err)
		os.Exit(1)
	}
	if err := run(*country, *seed, *out, *resume, *anon, *harDir, *chunk, *analyze, *aworkers); err != nil {
		stopProfiling()
		fmt.Fprintln(os.Stderr, "gamma:", err)
		os.Exit(1)
	}
	stopProfiling()
}

func run(country string, seed uint64, out string, resume, anon bool, harDir string, chunk int, analyze bool, analysisWorkers int) error {
	fmt.Fprintf(os.Stderr, "building world (seed %d)...\n", seed)
	w, err := gamma.NewWorld(seed)
	if err != nil {
		return err
	}
	sels, err := gamma.SelectTargets(w)
	if err != nil {
		return err
	}
	sel, ok := sels[country]
	if !ok {
		return fmt.Errorf("no volunteer in country %q (have %v)", country, w.SourceCountries())
	}
	env, cfg, err := gamma.VolunteerEnv(w, country)
	if err != nil {
		return err
	}
	cfg.Targets = sel.Targets()
	suite, err := core.New(cfg, env)
	if err != nil {
		return err
	}

	ctx := context.Background()
	var ds *core.Dataset
	if resume {
		ds, err = core.LoadDataset(out)
		if err != nil {
			return fmt.Errorf("resume: %w", err)
		}
		fmt.Fprintf(os.Stderr, "resuming: %d/%d targets already recorded\n", len(ds.Pages), len(cfg.Targets))
		if err := suite.ResumeLimit(ctx, ds, chunk); err != nil {
			return err
		}
	} else if chunk > 0 {
		ds = suite.NewDataset()
		if err := suite.ResumeLimit(ctx, ds, chunk); err != nil {
			return err
		}
	} else {
		ds, err = suite.Run(ctx)
		if err != nil {
			return err
		}
	}
	if anon {
		ds.Anonymize()
	}
	if err := core.SaveDataset(out, ds); err != nil {
		return err
	}
	if harDir != "" {
		n, err := writeHARs(harDir, ds)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %d HAR files to %s\n", n, harDir)
	}
	fmt.Fprintf(os.Stderr, "recorded %d targets (%d loaded OK) -> %s\n",
		len(ds.Pages), ds.LoadedOK(), out)
	if analyze {
		return analyzePreview(w, ds, analysisWorkers)
	}
	return nil
}

// analyzePreview runs Box 2 over the freshly recorded dataset so a
// volunteer can sanity-check a session before uploading. The preview is
// advisory: the study's authoritative analysis happens server-side over
// all countries at once.
func analyzePreview(w *gamma.World, ds *core.Dataset, workers int) error {
	res, err := gamma.AnalyzeWithWorkers(w, []*core.Dataset{ds}, workers)
	if err != nil {
		return fmt.Errorf("analyze preview: %w", err)
	}
	fn := res.Funnel
	fmt.Fprintf(os.Stderr,
		"analysis preview (%s): %d domain observations, %d claimed non-local, %d survived SOL, %d survived rDNS, %d trackers (%d cloaked)\n",
		ds.Country, fn.DomainObservations, fn.NonLocalClaimed, fn.AfterSOL, fn.AfterRDNS, fn.Trackers, fn.CloakedTrackers)
	return nil
}

// writeHARs exports each loaded page as a standard HAR 1.2 document.
func writeHARs(dir string, ds *core.Dataset) (int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	n := 0
	for _, p := range ds.Pages {
		if !p.Load.OK {
			continue
		}
		pl := browser.PageLoad{
			SiteURL:    p.Load.URL,
			SiteDomain: p.Load.Site,
			OK:         p.Load.OK,
			DurationMs: p.Load.DurationMs,
		}
		for _, r := range p.Load.Requests {
			pl.Requests = append(pl.Requests, browser.NetRequest{
				URL: r.URL, Domain: r.Domain, Type: r.Type,
				Initiator: r.Initiator, Blocked: r.Blocked,
			})
		}
		raw, err := pl.ToHAR(ds.StartedAt).JSON()
		if err != nil {
			return n, err
		}
		name := filepath.Join(dir, strings.ReplaceAll(p.Target.Domain, "/", "_")+".har")
		if err := os.WriteFile(name, raw, 0o644); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}
