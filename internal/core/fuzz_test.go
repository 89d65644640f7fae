package core_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	gamma "github.com/gamma-suite/gamma"
	"github.com/gamma-suite/gamma/internal/core"
	"github.com/gamma-suite/gamma/internal/pipeline"
)

// FuzzLoadDataset feeds arbitrary bytes to LoadDataset as a volunteer's
// upload. Whatever it accepts must go through Box 2 to an error or a
// result, never a panic.
func FuzzLoadDataset(f *testing.F) {
	ds := core.SampleDataset(f)
	compact, err := json.Marshal(ds)
	if err != nil {
		f.Fatal(err)
	}
	indented, err := json.MarshalIndent(ds, "", "  ")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(compact)
	f.Add(indented)

	w, err := gamma.NewWorld(42)
	if err != nil {
		f.Fatal(err)
	}
	env := gamma.PipelineEnv(w)
	path := filepath.Join(f.TempDir(), "upload.json")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ds, err := core.LoadDataset(path)
		if err != nil {
			return
		}
		_, _ = pipeline.Process(env, []*core.Dataset{ds})
	})
}
