package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

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
	hars, _ := os.ReadDir(filepath.Join(dir, "har"))
	if len(hars) == 0 {
		t.Error("HAR directory empty")
	}
	for _, h := range hars {
		if !strings.HasSuffix(h.Name(), ".har") {
			t.Errorf("unexpected HAR file %s", h.Name())
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
