package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/gamma-suite/gamma/internal/analysis"
	"github.com/gamma-suite/gamma/internal/core"
	"github.com/gamma-suite/gamma/internal/geo"
	"github.com/gamma-suite/gamma/internal/geoloc"
	"github.com/gamma-suite/gamma/internal/pipeline"
	"github.com/gamma-suite/gamma/internal/sched"
)

// --- synthetic corpus fixtures (no study run needed) ---

func testRegistry(t testing.TB) *geo.Registry {
	t.Helper()
	reg, err := geo.NewRegistry([]geo.Country{
		{Code: "AA", Name: "Alphaland", Continent: geo.Europe,
			Cities: []geo.City{{Name: "Alpha", Country: "AA"}}},
		{Code: "BB", Name: "Betastan", Continent: geo.Asia,
			Cities: []geo.City{{Name: "Beta", Country: "BB"}}},
		{Code: "CC", Name: "Gammaria", Continent: geo.Europe,
			Cities: []geo.City{{Name: "Gamma", Country: "CC"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// makeResult hand-builds a small analyzed corpus. Distinct variants have
// the same endpoint set (countries, tracker domains, figure ids) but
// different counts, so their response bodies differ byte-wise — exactly
// what the swap tests need.
func makeResult(variant int) *pipeline.Result {
	res := &pipeline.Result{
		Countries:      map[string]*pipeline.CountryResult{},
		TrackerDomains: map[string]string{},
	}
	for i, cc := range []string{"AA", "BB"} {
		dest := "CC"
		tracker := pipeline.DomainObs{
			Domain:      "ads.tracker-x.example",
			Addr:        fmt.Sprintf("192.0.2.%d", i+1),
			Class:       geoloc.NonLocal,
			DestCountry: dest,
			DestCity:    "Gamma, CC",
			IsTracker:   true, TrackerSource: "easylist",
			Org: "TrackCo", OrgCountry: dest, HostASN: 64500,
		}
		local := pipeline.DomainObs{
			Domain: "local-site.example", Addr: "198.51.100.7", Class: geoloc.Local,
		}
		cr := &pipeline.CountryResult{
			Country:     cc,
			City:        geo.City{Name: map[string]string{"AA": "Alpha", "BB": "Beta"}[cc], Country: cc},
			TraceOrigin: "volunteer",
			Targets:     10 + variant, // the variant knob: shifts every derived count
			LoadedOK:    8 + variant,
			Verdicts: map[string]pipeline.DomainObs{
				tracker.Domain: tracker,
				local.Domain:   local,
			},
		}
		for s := 0; s < 3+variant; s++ {
			cr.Sites = append(cr.Sites, pipeline.SiteResult{
				Country: cc,
				Site:    fmt.Sprintf("site-%d.%s.example", s, cc),
				Kind:    core.KindRegional,
				LoadOK:  true,
				Domains: []pipeline.DomainObs{tracker},
			})
		}
		cr.Funnel = geoloc.FunnelCounts{Total: 2, Local: 1, NonLocal: 1}
		res.Countries[cc] = cr
		res.TrackerDomains[tracker.Domain] = tracker.TrackerSource
	}
	res.Funnel.Trackers = 2
	return res
}

func buildTestSnapshot(t testing.TB, variant int, id string) *Snapshot {
	t.Helper()
	snap, err := Build(makeResult(variant), testRegistry(t), map[string]analysis.PolicyInfo{
		"AA": {Type: "CS", Enacted: true},
		"BB": {Type: "NR"},
	}, Meta{ID: id})
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func newTestServer(t testing.TB, snap *Snapshot, opts Options) (*Server, *Store) {
	t.Helper()
	st, err := NewStore(snap)
	if err != nil {
		t.Fatal(err)
	}
	if opts.Clock == nil {
		opts.Clock = sched.NewFakeClock(time.Unix(1700000000, 0))
	}
	return New(st, opts), st
}

func get(t testing.TB, srv *Server, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

// --- router ---

func TestRouteTable(t *testing.T) {
	cases := []struct {
		path string
		ep   endpoint
		arg  string
	}{
		{"/v1/countries", epCountries, ""},
		{"/v1/countries/", epCountries, ""},
		{"/v1/countries///", epCountries, ""},
		{"/v1/countries/pk", epCountry, "pk"},
		{"/v1/countries/PK/", epCountry, "PK"},
		{"/v1/countries/p%6b", epCountry, "pk"},
		{"/v1/countries/a/b", epUnknown, ""},
		{"/v1/trackers", epTrackers, ""},
		{"/v1/trackers/ads.tracker-x.example", epTracker, "ads.tracker-x.example"},
		{"/v1/trackers/a%2Fb", epUnknown, ""},
		{"/v1/trackers/%zz", epUnknown, ""},
		{"/v1/flows", epFlows, ""},
		{"/v1/figures", epFigures, ""},
		{"/v1/figures/fig5", epFigure, "fig5"},
		{"/healthz", epHealth, ""},
		{"/debug/metrics", epMetrics, ""},
		{"/admin/reload", epReload, ""},
		{"/", epUnknown, ""},
		{"", epUnknown, ""},
		{"/v2/countries", epUnknown, ""},
		{"/v1/Countries", epUnknown, ""},
	}
	for _, tc := range cases {
		ep, arg := route(tc.path)
		if ep != tc.ep || arg != tc.arg {
			t.Errorf("route(%q) = (%v, %q), want (%v, %q)", tc.path, ep, arg, tc.ep, tc.arg)
		}
	}
}

// --- store: validation before swap, rollback on bad input ---

func TestStoreRejectsInvalidSnapshots(t *testing.T) {
	good := buildTestSnapshot(t, 0, "good")
	if _, err := NewStore(nil); err == nil {
		t.Fatal("NewStore(nil) succeeded")
	}
	empty, err := Build(&pipeline.Result{Countries: map[string]*pipeline.CountryResult{}},
		testRegistry(t), nil, Meta{ID: "empty"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewStore(empty); err == nil {
		t.Fatal("NewStore accepted an empty corpus")
	}

	st, err := NewStore(good)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Install(empty); err == nil {
		t.Fatal("Install accepted an empty corpus")
	}
	if st.Load() != good {
		t.Fatal("failed install did not keep the previous snapshot serving")
	}
	if st.Swaps() != 0 {
		t.Fatalf("failed install counted as a swap: %d", st.Swaps())
	}

	next := buildTestSnapshot(t, 1, "next")
	if err := st.Install(next); err != nil {
		t.Fatal(err)
	}
	if st.Load() != next || st.Swaps() != 1 {
		t.Fatalf("valid install not applied: snap=%p swaps=%d", st.Load(), st.Swaps())
	}

	// A built snapshot missing one tracker payload cannot serve an
	// endpoint it enumerates: NewStore refuses it, and a reload that
	// produces it answers 422 with the previous snapshot still live.
	holed := buildTestSnapshot(t, 1, "holed")
	delete(holed.tracker, "ads.tracker-x.example")
	if _, err := NewStore(holed); err == nil {
		t.Fatal("NewStore accepted a snapshot with a missing tracker payload")
	}
	srv := New(st, Options{
		Clock:  sched.NewFakeClock(time.Unix(1700000000, 0)),
		Reload: func(context.Context, url.Values) (*Snapshot, error) { return holed, nil },
	})
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/admin/reload", nil))
	if rec.Code != http.StatusUnprocessableEntity || !strings.Contains(rec.Body.String(), "/v1/trackers/ads.tracker-x.example") {
		t.Fatalf("reload of a holed snapshot = %d: %s", rec.Code, rec.Body.String())
	}
	if st.Load() != next || st.Swaps() != 1 {
		t.Fatalf("refused reload disturbed the store: snap=%p swaps=%d", st.Load(), st.Swaps())
	}
	if got := get(t, srv, "/v1/trackers/ads.tracker-x.example").Header().Get("X-Gamma-Snapshot"); got != "next" {
		t.Fatalf("after the refused reload, generation %q is serving", got)
	}
}

// --- endpoint behaviour ---

func TestEndpointsServeSnapshotBodies(t *testing.T) {
	snap := buildTestSnapshot(t, 0, "unit")
	srv, _ := newTestServer(t, snap, Options{})
	for _, path := range snap.Endpoints() {
		rec := get(t, srv, path)
		if rec.Code != http.StatusOK {
			t.Errorf("GET %s = %d", path, rec.Code)
			continue
		}
		want, ok := snap.Body(path)
		if !ok {
			t.Errorf("snapshot cannot resolve its own endpoint %s", path)
			continue
		}
		if !bytes.Equal(rec.Body.Bytes(), want) {
			t.Errorf("GET %s body differs from precomputed payload", path)
		}
		if got := rec.Header().Get("X-Gamma-Snapshot"); got != "unit" {
			t.Errorf("GET %s snapshot header = %q", path, got)
		}
		if got := rec.Header().Get("Content-Length"); got != fmt.Sprint(len(want)) {
			t.Errorf("GET %s content-length = %q, want %d", path, got, len(want))
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Errorf("GET %s body is not valid JSON", path)
		}
	}
}

func TestCountryLookupIsCaseAndSlashTolerant(t *testing.T) {
	snap := buildTestSnapshot(t, 0, "unit")
	srv, _ := newTestServer(t, snap, Options{})
	want, _ := snap.Body("/v1/countries/aa")
	for _, path := range []string{"/v1/countries/AA", "/v1/countries/aa", "/v1/countries/Aa", "/v1/countries/aa/", "/v1/countries/%61a"} {
		rec := get(t, srv, path)
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
			t.Errorf("GET %s = %d, body match=%v", path, rec.Code, bytes.Equal(rec.Body.Bytes(), want))
		}
	}
	var profile CountryProfile
	if err := json.Unmarshal(want, &profile); err != nil {
		t.Fatal(err)
	}
	if profile.Code != "AA" || profile.Continent != "Europe" || len(profile.NonLocalTrackers) != 1 {
		t.Errorf("profile = %+v", profile)
	}
	if len(profile.Destinations) != 1 || profile.Destinations[0].Country != "CC" {
		t.Errorf("destinations = %+v", profile.Destinations)
	}
}

func TestTrackerReverseIndex(t *testing.T) {
	snap := buildTestSnapshot(t, 0, "unit")
	srv, _ := newTestServer(t, snap, Options{})
	rec := get(t, srv, "/v1/trackers/ads.tracker-x.example")
	if rec.Code != http.StatusOK {
		t.Fatalf("tracker lookup = %d", rec.Code)
	}
	var tp TrackerProfile
	if err := json.Unmarshal(rec.Body.Bytes(), &tp); err != nil {
		t.Fatal(err)
	}
	if tp.Domain != "ads.tracker-x.example" || tp.Org != "TrackCo" {
		t.Errorf("tracker profile = %+v", tp)
	}
	if len(tp.Countries) != 2 || tp.Countries[0] != "AA" || tp.Countries[1] != "BB" {
		t.Errorf("observing countries = %v", tp.Countries)
	}
	if len(tp.DestCountries) != 1 || tp.DestCountries[0] != "CC" {
		t.Errorf("dest countries = %v", tp.DestCountries)
	}
}

func TestUnknownPathsReturnStructured404(t *testing.T) {
	snap := buildTestSnapshot(t, 0, "unit")
	srv, _ := newTestServer(t, snap, Options{})
	for _, path := range []string{
		"/", "/v1", "/v1/countries/zz", "/v1/trackers/never-seen.example",
		"/v1/figures/fig99", "/nope", "/v1/countries/a/b",
	} {
		rec := get(t, srv, path)
		if rec.Code != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, rec.Code)
			continue
		}
		var eb errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
			t.Errorf("GET %s: 404 body not JSON: %v", path, err)
			continue
		}
		if eb.Status != http.StatusNotFound || eb.Error == "" {
			t.Errorf("GET %s: 404 body = %+v", path, eb)
		}
	}
}

func TestMethodDiscipline(t *testing.T) {
	snap := buildTestSnapshot(t, 0, "unit")
	srv, _ := newTestServer(t, snap, Options{})

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/countries", nil))
	if rec.Code != http.StatusMethodNotAllowed || rec.Header().Get("Allow") != "GET, HEAD" {
		t.Errorf("POST /v1/countries = %d, Allow=%q", rec.Code, rec.Header().Get("Allow"))
	}

	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodHead, "/v1/countries", nil))
	want, _ := snap.Body("/v1/countries")
	if rec.Code != http.StatusOK || rec.Body.Len() != 0 ||
		rec.Header().Get("Content-Length") != fmt.Sprint(len(want)) {
		t.Errorf("HEAD = %d, body %d bytes, CL=%q", rec.Code, rec.Body.Len(), rec.Header().Get("Content-Length"))
	}

	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/admin/reload", nil))
	if rec.Code != http.StatusMethodNotAllowed || rec.Header().Get("Allow") != "POST" {
		t.Errorf("GET /admin/reload = %d, Allow=%q", rec.Code, rec.Header().Get("Allow"))
	}
}

func TestMetricsEndpoint(t *testing.T) {
	clock := sched.NewFakeClock(time.Unix(1700000000, 0))
	snap := buildTestSnapshot(t, 0, "metrics-test")
	srv, _ := newTestServer(t, snap, Options{Clock: clock})

	get(t, srv, "/v1/countries")
	get(t, srv, "/v1/countries")
	get(t, srv, "/v1/countries/zz") // 404 → error counter on the country endpoint

	rec := get(t, srv, "/debug/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics = %d", rec.Code)
	}
	var mp MetricsPayload
	if err := json.Unmarshal(rec.Body.Bytes(), &mp); err != nil {
		t.Fatal(err)
	}
	if mp.Snapshot.ID != "metrics-test" || mp.Snapshot.Countries != 2 || mp.Snapshot.Trackers != 1 {
		t.Errorf("snapshot info = %+v", mp.Snapshot)
	}
	rows := map[string]EndpointStats{}
	for _, row := range mp.Endpoints {
		rows[row.Endpoint] = row
	}
	if got := rows["countries"]; got.Requests != 2 || got.Errors != 0 {
		t.Errorf("countries stats = %+v", got)
	}
	if got := rows["country"]; got.Requests != 1 || got.Errors != 1 {
		t.Errorf("country stats = %+v", got)
	}
	// All fake-clock requests take zero virtual time → first bucket.
	if got := rows["countries"].Latency[0].Count; got != 2 {
		t.Errorf("latency bucket[0] = %d, want 2", got)
	}
}

func TestAdmissionControlShedsWith503(t *testing.T) {
	clock := sched.NewFakeClock(time.Unix(1700000000, 0))
	snap := buildTestSnapshot(t, 0, "limit")
	srv, _ := newTestServer(t, snap, Options{Clock: clock, MaxConcurrent: 1, AcquireTimeout: time.Second})

	// Occupy the only slot.
	srv.sem <- struct{}{}
	done := make(chan *httptest.ResponseRecorder)
	go func() {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/flows", nil))
		done <- rec
	}()
	clock.BlockUntilWaiters(1) // the request is parked on clock.After
	clock.Advance(time.Second)
	rec := <-done
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("saturated server = %d, want 503", rec.Code)
	}
	var eb errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Status != http.StatusServiceUnavailable {
		t.Fatalf("503 body = %s (err %v)", rec.Body.Bytes(), err)
	}
	<-srv.sem // free the slot; the next request must succeed
	if rec := get(t, srv, "/v1/flows"); rec.Code != http.StatusOK {
		t.Fatalf("after release = %d", rec.Code)
	}
	if srv.m.overloads.Load() != 1 {
		t.Fatalf("overloads = %d, want 1", srv.m.overloads.Load())
	}
}

// --- hot reload ---

func TestAdminReloadSwapsAndRollsBack(t *testing.T) {
	snapA := buildTestSnapshot(t, 0, "A")
	snapB := buildTestSnapshot(t, 1, "B")
	reloadErr := false
	srv, st := newTestServer(t, snapA, Options{
		Reload: func(_ context.Context, params url.Values) (*Snapshot, error) {
			if reloadErr {
				return nil, fmt.Errorf("synthetic dataset corruption (variant %s)", params.Get("variant"))
			}
			return snapB, nil
		},
	})

	post := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/admin/reload?variant=1", nil))
		return rec
	}
	rec := post()
	if rec.Code != http.StatusOK {
		t.Fatalf("reload = %d: %s", rec.Code, rec.Body.Bytes())
	}
	var rr reloadResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &rr); err != nil {
		t.Fatal(err)
	}
	if !rr.Swapped || rr.Snapshot != "B" || rr.Swaps != 1 {
		t.Errorf("reload response = %+v", rr)
	}
	if st.Load() != snapB {
		t.Fatal("reload did not swap the snapshot")
	}
	if got := get(t, srv, "/v1/countries").Header().Get("X-Gamma-Snapshot"); got != "B" {
		t.Errorf("post-swap snapshot header = %q", got)
	}

	// A failing reloader reports 422 and leaves B serving.
	reloadErr = true
	if rec := post(); rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("failed reload = %d", rec.Code)
	}
	if st.Load() != snapB || st.Swaps() != 1 {
		t.Fatal("failed reload disturbed the serving snapshot")
	}
}

// TestSwapUnderLoadZeroDowntime hammers every endpoint from concurrent
// readers while the snapshot is swapped back and forth. Run under -race
// (CI does), this is the zero-downtime proof: every response during the
// swap window is a 200 whose body is byte-identical to one of the two
// snapshots' precomputed payloads — never an error, never a torn mix.
func TestSwapUnderLoadZeroDowntime(t *testing.T) {
	snapA := buildTestSnapshot(t, 0, "A")
	snapB := buildTestSnapshot(t, 1, "B")
	srv, st := newTestServer(t, snapA, Options{})

	paths := snapA.Endpoints()
	wantA := map[string][]byte{}
	wantB := map[string][]byte{}
	for _, p := range paths {
		a, okA := snapA.Body(p)
		b, okB := snapB.Body(p)
		if !okA || !okB {
			t.Fatalf("endpoint %s not servable by both snapshots", p)
		}
		wantA[p], wantB[p] = a, b
	}

	const readers = 8
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, p := range paths {
					rec := httptest.NewRecorder()
					srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, p, nil))
					if rec.Code != http.StatusOK {
						select {
						case errc <- fmt.Errorf("GET %s = %d during swap", p, rec.Code):
						default:
						}
						return
					}
					body := rec.Body.Bytes()
					if !bytes.Equal(body, wantA[p]) && !bytes.Equal(body, wantB[p]) {
						select {
						case errc <- fmt.Errorf("GET %s served a body matching neither snapshot", p):
						default:
						}
						return
					}
				}
			}
		}()
	}
	for swap := 0; swap < 40; swap++ {
		next := snapA
		if swap%2 == 0 {
			next = snapB
		}
		if err := st.Install(next); err != nil {
			t.Fatalf("swap %d: %v", swap, err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	if st.Swaps() != 40 {
		t.Fatalf("swaps = %d, want 40", st.Swaps())
	}
}

// --- the zero-allocation contract ---

// nopResponseWriter is a reusable http.ResponseWriter whose header map
// persists across requests, isolating the handler's own allocation
// behaviour from the recorder's.
type nopResponseWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *nopResponseWriter) Header() http.Header { return w.h }
func (w *nopResponseWriter) WriteHeader(s int)   { w.status = s }
func (w *nopResponseWriter) Write(b []byte) (int, error) {
	w.n += len(b)
	return len(b), nil
}

// TestHotEndpointsZeroAllocs pins the steady-state contract: serving a
// precomputed payload allocates nothing. Every hot GET endpoint is
// measured through the full ServeHTTP path (routing, admission, metrics,
// header+body write) with a reused writer and request.
func TestHotEndpointsZeroAllocs(t *testing.T) {
	snap := buildTestSnapshot(t, 0, "alloc")
	srv, _ := newTestServer(t, snap, Options{})
	for _, path := range []string{
		"/v1/countries",
		"/v1/countries/aa",
		"/v1/countries/AA", // canonical case: folded map hit, no fold alloc
		"/v1/trackers",
		"/v1/trackers/ads.tracker-x.example",
		"/v1/flows",
		"/v1/figures",
		"/v1/figures/fig5",
		"/healthz",
	} {
		w := &nopResponseWriter{h: make(http.Header)}
		r := httptest.NewRequest(http.MethodGet, path, nil)
		if allocs := testing.AllocsPerRun(200, func() {
			srv.ServeHTTP(w, r)
		}); allocs != 0 {
			t.Errorf("GET %s allocates %.1f times per request, want 0", path, allocs)
		}
		if w.status != http.StatusOK || w.n == 0 {
			t.Errorf("GET %s = %d (%d bytes)", path, w.status, w.n)
		}
	}
}

// TestPanicRecovery routes a request that panics inside the handler and
// checks the 500 is structured and the server keeps serving.
func TestPanicRecovery(t *testing.T) {
	snap := buildTestSnapshot(t, 0, "panic")
	srv, _ := newTestServer(t, snap, Options{
		Reload: func(context.Context, url.Values) (*Snapshot, error) { panic("reloader exploded") },
	})
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/admin/reload", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler = %d, want 500", rec.Code)
	}
	var eb errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Status != http.StatusInternalServerError {
		t.Fatalf("500 body = %s", rec.Body.Bytes())
	}
	if srv.m.panics.Load() != 1 {
		t.Fatalf("panics counter = %d", srv.m.panics.Load())
	}
	if rec := get(t, srv, "/v1/countries"); rec.Code != http.StatusOK {
		t.Fatalf("server dead after panic: %d", rec.Code)
	}
}

// TestBodyMatchesEndpointEnumeration pins that Endpoints() and Body()
// agree: every enumerated path resolves, and resolution round-trips
// through the same router the HTTP layer uses.
func TestBodyMatchesEndpointEnumeration(t *testing.T) {
	snap := buildTestSnapshot(t, 0, "enum")
	eps := snap.Endpoints()
	if len(eps) < 4+2+1+len(analysis.FigureIDs()) {
		t.Fatalf("only %d endpoints enumerated", len(eps))
	}
	seen := map[string]bool{}
	for _, p := range eps {
		if seen[p] {
			t.Errorf("duplicate endpoint %s", p)
		}
		seen[p] = true
		if !strings.HasPrefix(p, "/v1/") {
			t.Errorf("endpoint %s outside /v1", p)
		}
		if _, ok := snap.Body(p); !ok {
			t.Errorf("Body cannot resolve enumerated endpoint %s", p)
		}
	}
	if _, ok := snap.Body("/v1/countries/zz"); ok {
		t.Error("Body resolved an unknown country")
	}
}

// TestAdminRequestBodyBounds pins the admin-abuse guards: both admin
// endpoints refuse oversized request bodies and oversized query strings
// with a structured 413 before any expensive work runs, and a
// Content-Length lie is caught by draining through the bounded reader.
func TestAdminRequestBodyBounds(t *testing.T) {
	snap := buildTestSnapshot(t, 0, "bounds")
	srv, _ := newTestServer(t, snap, Options{
		Reload: func(context.Context, url.Values) (*Snapshot, error) {
			t.Error("reloader ran for a request that should have been refused")
			return nil, nil
		},
	})
	post := func(target string, body io.Reader, declare int64) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, target, body)
		if declare >= 0 {
			req.ContentLength = declare
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		return rec
	}
	check413 := func(name string, rec *httptest.ResponseRecorder) {
		t.Helper()
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s = %d, want 413", name, rec.Code)
		}
		var eb errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Status != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: unstructured 413 body: %s", name, rec.Body.Bytes())
		}
	}
	oversized := func() io.Reader { return bytes.NewReader(make([]byte, maxAdminBody+1)) }
	for _, target := range []string{"/admin/reload", "/admin/rollback"} {
		check413(target+" declared oversize", post(target, oversized(), maxAdminBody+1))
		// Undeclared length (chunked-style): caught while draining.
		check413(target+" undeclared oversize", post(target, oversized(), -1))
		check413(target+" oversized query", post(target+"?pad="+strings.Repeat("x", maxQueryBytes+1), nil, 0))
	}
	// A body at exactly the bound is accepted (rollback with an empty
	// history answers 409, proving the request got past the guards).
	rec := post("/admin/rollback", bytes.NewReader(make([]byte, maxAdminBody)), maxAdminBody)
	if rec.Code != http.StatusConflict {
		t.Fatalf("bounded body refused: %d: %s", rec.Code, rec.Body.String())
	}
}

// TestMetricsRowsAllNamed pins the observability contract for the route
// table: every endpoint row /debug/metrics emits carries a non-empty,
// unique name — adding an endpoint without naming it is a test failure,
// not a silent "unknown" row — and the row set covers the full enum.
func TestMetricsRowsAllNamed(t *testing.T) {
	snap := buildTestSnapshot(t, 0, "named")
	srv, _ := newTestServer(t, snap, Options{})
	var mp MetricsPayload
	if err := json.Unmarshal(get(t, srv, "/debug/metrics").Body.Bytes(), &mp); err != nil {
		t.Fatal(err)
	}
	if len(mp.Endpoints) != int(epCount) {
		t.Fatalf("%d endpoint rows, want %d", len(mp.Endpoints), epCount)
	}
	seen := map[string]bool{}
	for i, row := range mp.Endpoints {
		if row.Endpoint == "" {
			t.Errorf("endpoint row %d has no name", i)
		}
		if seen[row.Endpoint] {
			t.Errorf("duplicate endpoint row %q", row.Endpoint)
		}
		seen[row.Endpoint] = true
	}
	// The enum, the name table, and the route map stay in lockstep.
	if len(endpointNames) != int(epCount) {
		t.Fatalf("endpointNames has %d entries, epCount is %d", len(endpointNames), epCount)
	}
	for _, path := range []string{"/v1/snapshots", "/admin/rollback", "/debug/metrics", "/admin/reload"} {
		ep, _ := route(path)
		if ep == epUnknown {
			t.Errorf("%s does not route", path)
			continue
		}
		if !seen[endpointNames[ep]] {
			t.Errorf("%s routes to %q which has no metrics row", path, endpointNames[ep])
		}
	}
}
