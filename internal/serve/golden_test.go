package serve_test

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	gamma "github.com/gamma-suite/gamma"
	"github.com/gamma-suite/gamma/internal/serve"
)

// buildStudySnapshot runs the full simulated study at the given worker
// counts and builds a serving snapshot from its analyzed corpus.
func buildStudySnapshot(t *testing.T, seed uint64, workers int, id string) *serve.Snapshot {
	t.Helper()
	study, err := gamma.RunStudyWithOptions(context.Background(), seed, gamma.StudyOptions{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := serve.Build(study.Result, study.World.Registry, gamma.PolicyRegistry(study.World),
		serve.Meta{ID: id, BuiltAt: time.Unix(int64(seed), 0)})
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestGoldenResponsesAcrossWorkersAndSwap is the serving layer's
// end-to-end determinism proof: every /v1 endpoint body is byte-identical
// whether the corpus was produced serially or with 4 workers, and stays
// byte-identical across a live snapshot swap — Meta differences surface
// only in the X-Gamma-Snapshot header, never in a body.
func TestGoldenResponsesAcrossWorkersAndSwap(t *testing.T) {
	if testing.Short() {
		t.Skip("full study run")
	}
	const seed = 42
	serial := buildStudySnapshot(t, seed, 1, "serial")
	parallel := buildStudySnapshot(t, seed, 4, "parallel")

	eps := serial.Endpoints()
	if len(eps) < 10 {
		t.Fatalf("suspiciously few endpoints: %d", len(eps))
	}
	for _, p := range eps {
		a, okA := serial.Body(p)
		b, okB := parallel.Body(p)
		if !okA || !okB {
			t.Fatalf("endpoint %s missing from a snapshot (serial=%v parallel=%v)", p, okA, okB)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("endpoint %s differs between workers=1 and workers=4", p)
		}
	}

	// Serve snapA over real HTTP, capture every body, hot-swap to snapB
	// (same corpus, different Meta), and re-fetch: bytes must not move.
	store, err := serve.NewStore(serial)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serve.New(store, serve.Options{}))
	defer ts.Close()

	fetch := func(p string) ([]byte, string) {
		resp, err := http.Get(ts.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", p, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body, resp.Header.Get("X-Gamma-Snapshot")
	}

	before := map[string][]byte{}
	for _, p := range eps {
		body, id := fetch(p)
		if id != "serial" {
			t.Fatalf("GET %s served snapshot %q, want serial", p, id)
		}
		before[p] = body
	}
	if err := store.Install(parallel); err != nil {
		t.Fatal(err)
	}
	for _, p := range eps {
		body, id := fetch(p)
		if id != "parallel" {
			t.Fatalf("GET %s served snapshot %q after swap, want parallel", p, id)
		}
		if !bytes.Equal(body, before[p]) {
			t.Errorf("endpoint %s body changed across the swap", p)
		}
	}
}
