package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestEtagMatches exercises the allocation-free If-None-Match parser on
// the validator forms RFC 9110 admits (and the malformed ones it must
// reject).
func TestEtagMatches(t *testing.T) {
	const tag = `"deadbeefdeadbeef"`
	cases := []struct {
		name   string
		values []string
		want   bool
	}{
		{"exact", []string{tag}, true},
		{"weak validator", []string{"W/" + tag}, true},
		{"wildcard", []string{"*"}, true},
		{"wildcard in list", []string{`"nope", *`}, true},
		{"mismatch", []string{`"nope"`}, false},
		{"match after mismatch", []string{`"nope", ` + tag}, true},
		{"match in second header value", []string{`"nope"`, tag}, true},
		{"weak match in list", []string{`"nope", W/` + tag}, true},
		{"unquoted garbage", []string{"deadbeefdeadbeef"}, false},
		{"unterminated quote", []string{`"deadbeefdeadbeef`}, false},
		{"empty value", []string{""}, false},
		{"spaces and tabs only", []string{" \t , "}, false},
		{"prefix of tag", []string{`"deadbeef"`}, false},
		{"garbage then no more parseable members", []string{`garbage, ` + tag}, false},
		{"nil", nil, false},
	}
	for _, tc := range cases {
		if got := etagMatches(tc.values, tag); got != tc.want {
			t.Errorf("%s: etagMatches(%q) = %v, want %v", tc.name, tc.values, got, tc.want)
		}
	}
}

func TestEtagForIsStableAndQuoted(t *testing.T) {
	a := etagFor([]byte("payload"))
	if a != etagFor([]byte("payload")) {
		t.Error("etagFor is not deterministic")
	}
	if len(a) != 18 || a[0] != '"' || a[17] != '"' {
		t.Errorf("etagFor produced a malformed tag: %q", a)
	}
	if a == etagFor([]byte("payload2")) {
		t.Error("distinct bodies share an entity tag")
	}
}

// TestConditionalRequests drives the If-None-Match contract through the
// full HTTP path: a matching validator elides the body with a 304 (ETag
// still present, so the client's cache entry stays addressable), a stale
// or malformed one serves the full 200.
func TestConditionalRequests(t *testing.T) {
	snap := buildTestSnapshot(t, 0, "cond")
	srv, _ := newTestServer(t, snap, Options{})
	for _, path := range []string{"/v1/countries", "/v1/countries/aa", "/v1/trackers",
		"/v1/trackers/ads.tracker-x.example", "/v1/flows", "/v1/figures", "/v1/figures/fig5", "/healthz"} {
		first := get(t, srv, path)
		if first.Code != http.StatusOK {
			t.Fatalf("GET %s = %d", path, first.Code)
		}
		etag := first.Header().Get("Etag")
		if len(etag) != 18 || etag[0] != '"' {
			t.Fatalf("GET %s served entity tag %q", path, etag)
		}

		cases := []struct {
			validator  string
			wantStatus int
		}{
			{etag, http.StatusNotModified},
			{"W/" + etag, http.StatusNotModified},
			{"*", http.StatusNotModified},
			{`"stale-validator", ` + etag, http.StatusNotModified},
			{`"stale-validator"`, http.StatusOK},
			{"unquoted-garbage", http.StatusOK},
			{"", http.StatusOK},
		}
		for _, tc := range cases {
			req := httptest.NewRequest(http.MethodGet, path, nil)
			if tc.validator != "" {
				req.Header.Set("If-None-Match", tc.validator)
			}
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			if rec.Code != tc.wantStatus {
				t.Errorf("GET %s If-None-Match %q = %d, want %d", path, tc.validator, rec.Code, tc.wantStatus)
				continue
			}
			switch tc.wantStatus {
			case http.StatusNotModified:
				if rec.Body.Len() != 0 {
					t.Errorf("304 for %s carried %d body bytes", path, rec.Body.Len())
				}
				if got := rec.Header().Get("Etag"); got != etag {
					t.Errorf("304 for %s served entity tag %q, want %q", path, got, etag)
				}
			case http.StatusOK:
				if !bytes.Equal(rec.Body.Bytes(), first.Body.Bytes()) {
					t.Errorf("stale revalidation of %s served different bytes", path)
				}
			}
		}

		// HEAD revalidation follows the same conditional logic.
		req := httptest.NewRequest(http.MethodHead, path, nil)
		req.Header.Set("If-None-Match", etag)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusNotModified || rec.Body.Len() != 0 {
			t.Errorf("HEAD %s revalidation = %d (%d body bytes)", path, rec.Code, rec.Body.Len())
		}
	}
}

// TestEtagStableAcrossRebuilds pins the cache-validity story: the entity
// tag is a pure function of the body bytes, so a same-corpus rebuild
// serves the same tag, while a different corpus variant moves it.
func TestEtagStableAcrossRebuilds(t *testing.T) {
	snapA1 := buildTestSnapshot(t, 0, "A1")
	snapA2 := buildTestSnapshot(t, 0, "A2") // same corpus, new build
	snapB := buildTestSnapshot(t, 1, "B")   // different corpus

	for _, path := range snapA1.Endpoints() {
		ep, arg := route(path)
		pl1, ok1 := snapA1.payloadFor(ep, arg)
		pl2, ok2 := snapA2.payloadFor(ep, arg)
		if !ok1 || !ok2 {
			t.Fatalf("%s did not resolve in both builds", path)
		}
		if pl1.etag[0] != pl2.etag[0] {
			t.Errorf("%s: entity tag moved across a same-corpus rebuild", path)
		}
	}

	// A changed corpus must move the tag wherever it moves the bytes —
	// the variant knob shifts every per-country count.
	for _, path := range []string{"/v1/countries", "/v1/countries/aa", "/v1/countries/bb"} {
		ep, arg := route(path)
		plA, _ := snapA1.payloadFor(ep, arg)
		plB, ok := snapB.payloadFor(ep, arg)
		if !ok || plA.etag[0] == plB.etag[0] {
			t.Errorf("%s: corpus change did not move the entity tag", path)
		}
	}
}

// TestConditionalRevalidationZeroAllocs extends the zero-allocation
// contract to the 304 path: an If-None-Match hit writes preallocated
// headers and no body, allocating nothing.
func TestConditionalRevalidationZeroAllocs(t *testing.T) {
	snap := buildTestSnapshot(t, 0, "cond-alloc")
	srv, _ := newTestServer(t, snap, Options{})
	for _, path := range []string{"/v1/countries", "/v1/countries/aa", "/v1/trackers/ads.tracker-x.example", "/v1/flows"} {
		first := get(t, srv, path)
		etag := first.Header().Get("Etag")
		if first.Code != http.StatusOK || etag == "" {
			t.Fatalf("GET %s = %d, etag %q", path, first.Code, etag)
		}
		w := &nopResponseWriter{h: make(http.Header)}
		r := httptest.NewRequest(http.MethodGet, path, nil)
		r.Header["If-None-Match"] = []string{etag}
		if allocs := testing.AllocsPerRun(200, func() {
			srv.ServeHTTP(w, r)
		}); allocs != 0 {
			t.Errorf("revalidating %s allocates %.1f times per request, want 0", path, allocs)
		}
		if w.status != http.StatusNotModified || w.n != 0 {
			t.Errorf("revalidation of %s = %d (%d body bytes)", path, w.status, w.n)
		}
	}
}
