package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"github.com/gamma-suite/gamma/internal/browser"
	"github.com/gamma-suite/gamma/internal/core"
)

func TestRunRecordsDataset(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "lk.json.gz")
	if err := run("LK", 42, out, false, false, "", 25, false, 0); err != nil {
		t.Fatal(err)
	}
	ds, err := core.LoadDataset(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Pages) != 25 {
		t.Fatalf("chunked run recorded %d pages, want 25", len(ds.Pages))
	}
	// Resume continues from the same file.
	if err := run("LK", 42, out, true, true, filepath.Join(dir, "har"), 10, true, 2); err != nil {
		t.Fatal(err)
	}
	ds, err = core.LoadDataset(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Pages) != 35 {
		t.Fatalf("resume+chunk recorded %d pages, want 35", len(ds.Pages))
	}
	if ds.VolunteerIP != "" {
		t.Error("anonymize flag should strip the IP")
	}
	checkHARs(t, filepath.Join(dir, "har"), ds)

	// The study's Chrome sessions block nothing, so mark a request of a
	// loaded page blocked to see it exported as one.
	blocked := false
	for i := range ds.Pages {
		if reqs := ds.Pages[i].Load.Requests; ds.Pages[i].Load.OK && len(reqs) > 1 {
			reqs[1].Blocked, blocked = true, true
			break
		}
	}
	if !blocked {
		t.Fatal("no loaded page with two requests")
	}
	blockedDir := filepath.Join(dir, "har-blocked")
	if _, err := writeHARs(blockedDir, ds); err != nil {
		t.Fatal(err)
	}
	checkHARs(t, blockedDir, ds)
}

// checkHARs requires dir to hold one HAR per loaded page of ds, each with
// the page URL as title and one entry per recorded request, in order,
// where blocked requests carry status 0 and the rest 200.
func checkHARs(t *testing.T, dir string, ds *core.Dataset) {
	t.Helper()
	pages := map[string]core.PageRecord{}
	for _, p := range ds.Pages {
		if p.Load.OK {
			pages[p.Target.Domain+".har"] = p.Load
		}
	}
	hars, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(hars) != len(pages) {
		t.Errorf("%s holds %d files for %d loaded pages", dir, len(hars), len(pages))
	}
	for _, h := range hars {
		load, ok := pages[h.Name()]
		if !ok {
			t.Errorf("unexpected HAR file %s", h.Name())
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, h.Name()))
		if err != nil {
			t.Fatal(err)
		}
		var har browser.HAR
		if err := json.Unmarshal(raw, &har); err != nil {
			t.Fatalf("%s: %v", h.Name(), err)
		}
		if len(har.Log.Pages) != 1 || har.Log.Pages[0].Title != load.URL {
			t.Errorf("%s: pages %+v, want one titled %s", h.Name(), har.Log.Pages, load.URL)
		}
		if len(har.Log.Entries) != len(load.Requests) {
			t.Errorf("%s: %d entries for %d requests", h.Name(), len(har.Log.Entries), len(load.Requests))
			continue
		}
		for i, e := range har.Log.Entries {
			req := load.Requests[i]
			want := 200
			if req.Blocked {
				want = 0
			}
			if e.Request.URL != req.URL || e.Response.Status != want {
				t.Errorf("%s entry %d: %s status %d, want %s status %d", h.Name(), i, e.Request.URL, e.Response.Status, req.URL, want)
			}
		}
	}
}

func TestRunRejectsUnknownCountry(t *testing.T) {
	if err := run("XX", 42, filepath.Join(t.TempDir(), "x.json"), false, false, "", 0, false, 0); err == nil {
		t.Error("unknown country must fail")
	}
}

// TestResumeRejectsOtherSeed: resuming a file recorded at another seed
// must fail without touching it, not mix two worlds' pages in one dataset.
func TestResumeRejectsOtherSeed(t *testing.T) {
	out := filepath.Join(t.TempDir(), "ae.json")
	if err := run("AE", 42, out, false, false, "", 5, false, 0); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := core.LoadDataset(out)
	if err != nil {
		t.Fatal(err)
	}
	err = run("AE", 43, out, true, false, "", 0, false, 0)
	if err == nil || !strings.Contains(err.Error(), ds.Pages[0].Target.Domain) {
		t.Fatalf("resume across seeds must fail naming %s: %v", ds.Pages[0].Target.Domain, err)
	}
	after, err := os.ReadFile(out)
	if err != nil || string(after) != string(before) {
		t.Error("a rejected resume must leave the dataset file untouched")
	}
}

// TestMain lets a test run the command itself: a test binary invoked as
// "<binary> gamma <flags>" runs main with those flags.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "gamma" {
		os.Args = os.Args[1:]
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestNegativeChunkIsUsageError(t *testing.T) {
	cmd := exec.Command(os.Args[0], "gamma", "-country", "AE", "-out", filepath.Join(t.TempDir(), "x.json"), "-chunk", "-3")
	stderr, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("-chunk -3 must exit 2, got %v\n%s", err, stderr)
	}
	if !strings.Contains(string(stderr), "-chunk must not be negative, got -3") || !strings.Contains(string(stderr), "Usage") {
		t.Errorf("stderr must explain the error and print the usage text:\n%s", stderr)
	}
}
