package gamma_test

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"

	gamma "github.com/gamma-suite/gamma"
	"github.com/gamma-suite/gamma/internal/export"
)

// TestStudyDeterminismAcrossWorkerCounts is the dynamic backstop behind
// gammavet's static guarantee: the full seeded study → analyze pipeline
// runs twice with different worker counts (the GOMAXPROCS-style knobs for
// both the volunteer campaign and Box 2 analysis), and the exported JSON
// plus every CSV artifact must be byte-identical. A nondeterminism bug
// that slips past the linter — a new unsorted map iteration on an output
// path, an unkeyed random draw — fails here instead.
func TestStudyDeterminismAcrossWorkerCounts(t *testing.T) {
	const seed = 20250805
	type snapshot struct {
		study []byte
		files map[string][]byte
	}
	run := func(workers int) snapshot {
		t.Helper()
		study, err := gamma.RunStudyWithOptions(context.Background(), seed, gamma.StudyOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		blob, err := json.Marshal(struct {
			Datasets map[string]*gamma.Dataset
			Result   *gamma.Result
		}{study.Datasets, study.Result})
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		names, err := export.Artifacts(study.Result, study.World.Registry, gamma.PolicyRegistry(study.World), dir)
		if err != nil {
			t.Fatal(err)
		}
		files := map[string][]byte{}
		for _, name := range names {
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			files[name] = data
		}
		return snapshot{study: blob, files: files}
	}

	serial := run(1)
	parallel := run(4)

	if !bytes.Equal(serial.study, parallel.study) {
		t.Errorf("study JSON differs between 1 and 4 workers (%d vs %d bytes)",
			len(serial.study), len(parallel.study))
	}
	if len(serial.files) == 0 {
		t.Fatal("export produced no artifacts")
	}
	names := make([]string, 0, len(serial.files))
	for name := range serial.files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		other, ok := parallel.files[name]
		if !ok {
			t.Errorf("artifact %s missing from parallel run", name)
			continue
		}
		if !bytes.Equal(serial.files[name], other) {
			t.Errorf("artifact %s differs between 1 and 4 workers", name)
		}
	}
	if len(parallel.files) != len(serial.files) {
		t.Errorf("artifact count differs: %d vs %d", len(serial.files), len(parallel.files))
	}
}
