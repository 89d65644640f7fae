package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/gamma-suite/gamma/internal/sched"
)

// historyHarness builds a server over a store at the given history depth,
// on the shared fake clock the serve tests use. The history and soak tests
// run their assertions in a "monolithic" subtest, named for the Store
// backend they exercise, so their subtest names stay stable.
func historyHarness(t *testing.T, snap *Snapshot, depth int) (*Server, *Store) {
	t.Helper()
	st, err := NewStoreWithOptions(snap, StoreOptions{HistoryDepth: depth})
	if err != nil {
		t.Fatal(err)
	}
	return New(st, Options{Clock: sched.NewFakeClock(time.Unix(1700000000, 0))}), st
}

// TestHistoryRingEvictsOldestAtDepth: the retention ring holds exactly
// -history generations; installing past the depth silently drops the
// oldest, whose ?snapshot= address stops resolving with a structured 404.
func TestHistoryRingEvictsOldestAtDepth(t *testing.T) {
	t.Run("monolithic", func(t *testing.T) {
		gens := []*Snapshot{
			buildTestSnapshot(t, 0, "gen-0"),
			buildTestSnapshot(t, 1, "gen-1"),
			buildTestSnapshot(t, 0, "gen-2"),
		}
		srv, st := historyHarness(t, gens[0], 2)
		for _, g := range gens[1:] {
			if err := st.Install(g); err != nil {
				t.Fatal(err)
			}
		}
		var sp SnapshotsPayload
		if err := json.Unmarshal(get(t, srv, "/v1/snapshots").Body.Bytes(), &sp); err != nil {
			t.Fatal(err)
		}
		if sp.Count != 2 || sp.Depth != 2 || len(sp.Snapshots) != 2 {
			t.Fatalf("after 3 installs at depth 2: %+v", sp)
		}
		// Newest first, live flagged on the head only.
		if sp.Snapshots[0].ID != "gen-2" || !sp.Snapshots[0].Live {
			t.Fatalf("head row: %+v", sp.Snapshots[0])
		}
		if sp.Snapshots[1].ID != "gen-1" || sp.Snapshots[1].Live {
			t.Fatalf("second row: %+v", sp.Snapshots[1])
		}
		// The retained predecessor time-travels; the evicted one 404s.
		rec := get(t, srv, "/v1/countries?snapshot=gen-1")
		want, _ := gens[1].Body("/v1/countries")
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("retained generation: GET = %d", rec.Code)
		}
		rec = get(t, srv, "/v1/countries?snapshot=gen-0")
		if rec.Code != http.StatusNotFound || !strings.Contains(rec.Body.String(), "not in history") {
			t.Fatalf("evicted generation: GET = %d: %s", rec.Code, rec.Body.String())
		}
	})
}

// TestHistoryTimeTravelReads pins the ?snapshot= read contract: every
// endpoint of a retained generation serves its original bytes with its
// original ETag (conditional requests included), unknown ids 404,
// malformed queries 400, and non-snapshot parameters fall through to the
// live generation untouched.
func TestHistoryTimeTravelReads(t *testing.T) {
	t.Run("monolithic", func(t *testing.T) {
		snapA := buildTestSnapshot(t, 0, "hist-a")
		snapB := buildTestSnapshot(t, 1, "hist-b")
		srv, st := historyHarness(t, snapA, DefaultHistoryDepth)
		if err := st.Install(snapB); err != nil {
			t.Fatal(err)
		}
		for _, path := range snapA.Endpoints() {
			rec := get(t, srv, path+"?snapshot=hist-a")
			want, _ := snapA.Body(path)
			if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("historical GET %s = %d or wrong bytes", path, rec.Code)
			}
			if got := rec.Header().Get("X-Gamma-Snapshot"); got != "hist-a" {
				t.Fatalf("historical GET %s answered by generation %q", path, got)
			}
			live := get(t, srv, path)
			wantLive, _ := snapB.Body(path)
			if !bytes.Equal(live.Body.Bytes(), wantLive) {
				t.Fatalf("live GET %s does not serve the installed generation", path)
			}
		}
		// Conditional requests revalidate against the historical tag.
		rec := get(t, srv, "/v1/countries?snapshot=hist-a")
		req := httptest.NewRequest(http.MethodGet, "/v1/countries?snapshot=hist-a", nil)
		req.Header.Set("If-None-Match", rec.Header().Get("Etag"))
		cond := httptest.NewRecorder()
		srv.ServeHTTP(cond, req)
		if cond.Code != http.StatusNotModified {
			t.Fatalf("historical conditional GET = %d, want 304", cond.Code)
		}
		// The live id resolves through the same parameter.
		liveByID := get(t, srv, "/v1/countries?snapshot=hist-b")
		wantB, _ := snapB.Body("/v1/countries")
		if liveByID.Code != http.StatusOK || !bytes.Equal(liveByID.Body.Bytes(), wantB) {
			t.Fatalf("live-by-id GET = %d", liveByID.Code)
		}
		if rec := get(t, srv, "/v1/countries?snapshot=never-installed"); rec.Code != http.StatusNotFound {
			t.Fatalf("unknown snapshot id = %d, want 404", rec.Code)
		}
		if rec := get(t, srv, "/v1/countries?snapshot=%zz"); rec.Code != http.StatusBadRequest {
			t.Fatalf("malformed query = %d, want 400", rec.Code)
		}
		rec2 := get(t, srv, "/v1/countries?unrelated=1")
		if rec2.Code != http.StatusOK || !bytes.Equal(rec2.Body.Bytes(), wantB) {
			t.Fatalf("non-snapshot query param did not fall through to live: %d", rec2.Code)
		}
	})
}

// TestHistoryRollbackChainAndMethodGuard: POST /admin/rollback restores
// predecessors one by one until the ring is a single generation, at which
// point further rollbacks 409; the endpoint is POST-only.
func TestHistoryRollbackChainAndMethodGuard(t *testing.T) {
	t.Run("monolithic", func(t *testing.T) {
		gens := []*Snapshot{
			buildTestSnapshot(t, 0, "chain-0"),
			buildTestSnapshot(t, 1, "chain-1"),
			buildTestSnapshot(t, 0, "chain-2"),
		}
		srv, st := historyHarness(t, gens[0], DefaultHistoryDepth)
		for _, g := range gens[1:] {
			if err := st.Install(g); err != nil {
				t.Fatal(err)
			}
		}
		if rec := get(t, srv, "/admin/rollback"); rec.Code != http.StatusMethodNotAllowed {
			t.Fatalf("GET /admin/rollback = %d, want 405", rec.Code)
		}
		post := func() *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/admin/rollback", nil))
			return rec
		}
		for i, wantID := range []string{"chain-1", "chain-0"} {
			rec := post()
			if rec.Code != http.StatusOK {
				t.Fatalf("rollback %d = %d: %s", i+1, rec.Code, rec.Body.String())
			}
			var rr rollbackResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &rr); err != nil {
				t.Fatal(err)
			}
			if !rr.RolledBack || rr.Snapshot != wantID {
				t.Fatalf("rollback %d restored %q, want %q", i+1, rr.Snapshot, wantID)
			}
			want, _ := gens[1-i].Body("/v1/countries")
			if rec := get(t, srv, "/v1/countries"); !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("after rollback %d the live listing is not generation %s", i+1, wantID)
			}
		}
		rec := post()
		if rec.Code != http.StatusConflict || !strings.Contains(rec.Body.String(), `"status":409`) {
			t.Fatalf("rollback with no predecessor = %d: %s", rec.Code, rec.Body.String())
		}
		// 2 installs + 2 rollbacks, every one a swap.
		if st.Swaps() != 4 {
			t.Fatalf("swaps = %d, want 4", st.Swaps())
		}
	})
}
