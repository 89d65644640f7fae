package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"github.com/gamma-suite/gamma/internal/sched"
)

// FuzzRoutePath is the router's totality proof: for arbitrary path bytes,
// route never panics, known endpoints only come from well-formed paths,
// and everything else is served as a structured 404 — never a raw
// http.Error string, never a 500.
func FuzzRoutePath(f *testing.F) {
	for _, seed := range []string{
		"/v1/countries", "/v1/countries/pk", "/v1/countries/PK/",
		"/v1/trackers/ads.example", "/v1/trackers/a%2fb", "/v1/figures/fig5",
		"/v1/flows", "/healthz", "/debug/metrics", "/admin/reload",
		"/", "", "//", "/v1/countries//pk", "/v1/countries/%zz",
		"/v1/countries/..%2f..%2fetc", "/v1/\x00", "/v1/countries/\xff\xfe",
		strings.Repeat("/v1/countries/", 50), "/V1/COUNTRIES",
	} {
		f.Add(seed)
	}

	snap := buildTestSnapshot(f, 0, "fuzz")
	st, err := NewStore(snap)
	if err != nil {
		f.Fatal(err)
	}
	srv := New(st, Options{Clock: sched.NewFakeClock(time.Unix(1700000000, 0))})

	f.Fuzz(func(t *testing.T, path string) {
		ep, arg := route(path) // must not panic on any input
		if ep != epUnknown && ep != epCount {
			// A resolved parameterized route always carries a non-empty,
			// slash-free argument.
			if (ep == epCountry || ep == epTracker || ep == epFigure) &&
				(arg == "" || strings.ContainsRune(arg, '/')) {
				t.Fatalf("route(%q) = (%v, %q): malformed argument", path, ep, arg)
			}
		}

		// Drive the full handler with the raw path. httptest.NewRequest
		// parses the URL itself, so bypass it the way a hostile client
		// bypasses well-formedness: hand-build the request.
		req := &http.Request{
			Method: http.MethodGet,
			URL:    &url.URL{Path: path},
			Proto:  "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Host: "fuzz.local",
		}
		req = req.WithContext(t.Context())
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req) // must not panic either

		switch rec.Code {
		case http.StatusOK, http.StatusMethodNotAllowed:
		case http.StatusNotFound:
			var eb errorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
				t.Fatalf("GET %q: 404 body is not structured JSON: %s", path, rec.Body.Bytes())
			}
			if eb.Status != http.StatusNotFound {
				t.Fatalf("GET %q: 404 body claims status %d", path, eb.Status)
			}
		default:
			t.Fatalf("GET %q = %d, outside the contract {200, 404, 405}", path, rec.Code)
		}
	})
}
