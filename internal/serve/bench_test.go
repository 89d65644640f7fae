package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/gamma-suite/gamma/internal/analysis"
	"github.com/gamma-suite/gamma/internal/sched"
)

// BenchmarkServeQueries measures the steady-state hot path: route →
// admission → snapshot load → precomputed payload write, with a reused
// writer so the numbers are the handler's own (0 allocs/op is the
// contract pinned by TestHotEndpointsZeroAllocs).
func BenchmarkServeQueries(b *testing.B) {
	snap := buildTestSnapshot(b, 0, "bench")
	st, err := NewStore(snap)
	if err != nil {
		b.Fatal(err)
	}
	srv := New(st, Options{Clock: sched.NewFakeClock(time.Unix(1700000000, 0))})
	for _, path := range []string{
		"/v1/countries",
		"/v1/countries/aa",
		"/v1/trackers/ads.tracker-x.example",
		"/v1/flows",
		"/v1/figures/fig5",
	} {
		b.Run(path, func(b *testing.B) {
			w := &nopResponseWriter{h: make(http.Header)}
			r := httptest.NewRequest(http.MethodGet, path, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				srv.ServeHTTP(w, r)
			}
			if w.status != http.StatusOK {
				b.Fatalf("status %d", w.status)
			}
		})
	}
	b.Run("parallel/v1/flows", func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			w := &nopResponseWriter{h: make(http.Header)}
			r := httptest.NewRequest(http.MethodGet, "/v1/flows", nil)
			for pb.Next() {
				srv.ServeHTTP(w, r)
			}
		})
	})
}

// BenchmarkSnapshotBuild measures the cold path a reload pays: indexing
// and encoding every payload from an analyzed corpus.
func BenchmarkSnapshotBuild(b *testing.B) {
	res := makeResult(0)
	reg := testRegistry(b)
	policies := map[string]analysis.PolicyInfo{"AA": {Type: "CS", Enacted: true}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Build(res, reg, policies, Meta{ID: "bench"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSwapUnderLoad measures Install while readers are hammering the
// store — the cost a live reload imposes on in-flight traffic.
func BenchmarkSwapUnderLoad(b *testing.B) {
	snapA := buildTestSnapshot(b, 0, "A")
	snapB := buildTestSnapshot(b, 1, "B")
	st, err := NewStore(snapA)
	if err != nil {
		b.Fatal(err)
	}
	srv := New(st, Options{Clock: sched.NewFakeClock(time.Unix(1700000000, 0))})
	stop := make(chan struct{})
	defer close(stop)
	for i := 0; i < 4; i++ {
		go func() {
			w := &nopResponseWriter{h: make(http.Header)}
			r := httptest.NewRequest(http.MethodGet, "/v1/countries", nil)
			for {
				select {
				case <-stop:
					return
				default:
					srv.ServeHTTP(w, r)
				}
			}
		}()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next := snapA
		if i%2 == 0 {
			next = snapB
		}
		if err := st.Install(next); err != nil {
			b.Fatal(err)
		}
	}
}
