package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/gamma-suite/gamma/internal/sched"
)

// TestSoakMixedLoadAcrossReloadAndRollback is the serving-plane soak:
// eight readers hammer a mix of data, history, health, and metrics
// endpoints through ServeHTTP while a writer drives full
// reload→rollback cycles through the admin API. The soak must observe
// zero non-200 responses, no response may ever mix generations (every
// data body is byte-identical to exactly one installed snapshot's
// payload for that path), and the swap counter read through
// /debug/metrics must be monotonic from any single reader's point of
// view. Run under -race in CI.
func TestSoakMixedLoadAcrossReloadAndRollback(t *testing.T) {
	t.Run("monolithic", func(t *testing.T) {
		snapA := buildTestSnapshot(t, 0, "soak-a")
		snapB := buildTestSnapshot(t, 1, "soak-b")
		reload := func(context.Context, url.Values) (*Snapshot, error) { return snapB, nil }
		clock := sched.NewFakeClock(time.Unix(1700000000, 0))

		// Data paths answerable by both generations, with the allowed bodies.
		type allowed struct{ a, b []byte }
		dataPaths := map[string]allowed{}
		for _, path := range snapA.Endpoints() {
			ba, _ := snapA.Body(path)
			bb, okB := snapB.Body(path)
			if okB {
				dataPaths[path] = allowed{a: ba, b: bb}
			}
		}
		if len(dataPaths) < 5 {
			t.Fatalf("only %d shared endpoints between fixture generations", len(dataPaths))
		}
		paths := make([]string, 0, len(dataPaths)+3)
		for p := range dataPaths {
			paths = append(paths, p)
		}
		paths = append(paths, "/v1/snapshots", "/healthz", "/debug/metrics")

		srv, _ := newTestServer(t, snapA, Options{Clock: clock, Reload: reload})

		const readers = 8
		const writerCycles = 20
		var stop atomic.Bool
		var firstSweep, done sync.WaitGroup
		errc := make(chan error, readers+1)
		firstSweep.Add(readers)
		done.Add(readers)
		for r := 0; r < readers; r++ {
			go func(r int) {
				defer done.Done()
				first := true
				var lastSwaps uint64
				for sweep := 0; ; sweep++ {
					for i := range paths {
						path := paths[(r+i)%len(paths)]
						rec := httptest.NewRecorder()
						srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
						if rec.Code != http.StatusOK {
							errc <- fmt.Errorf("reader %d: GET %s = %d: %s", r, path, rec.Code, rec.Body.String())
							return
						}
						switch path {
						case "/healthz":
						case "/v1/snapshots":
							var sp SnapshotsPayload
							if err := json.Unmarshal(rec.Body.Bytes(), &sp); err != nil || sp.Count < 1 || sp.Count > 2 {
								errc <- fmt.Errorf("reader %d: snapshots payload count=%d err=%v", r, sp.Count, err)
								return
							}
						case "/debug/metrics":
							var mp MetricsPayload
							if err := json.Unmarshal(rec.Body.Bytes(), &mp); err != nil {
								errc <- fmt.Errorf("reader %d: metrics: %v", r, err)
								return
							}
							if mp.Swaps < lastSwaps {
								errc <- fmt.Errorf("reader %d: swap count went backwards: %d then %d", r, lastSwaps, mp.Swaps)
								return
							}
							lastSwaps = mp.Swaps
							if mp.Panics != 0 {
								errc <- fmt.Errorf("reader %d: %d handler panics", r, mp.Panics)
								return
							}
						default:
							want := dataPaths[path]
							body := rec.Body.Bytes()
							if !bytes.Equal(body, want.a) && !bytes.Equal(body, want.b) {
								errc <- fmt.Errorf("reader %d: GET %s matches neither installed generation", r, path)
								return
							}
						}
					}
					if first {
						first = false
						firstSweep.Done()
					}
					if stop.Load() && sweep >= 2 {
						return
					}
				}
			}(r)
		}

		firstSweep.Wait()
		for cycle := 0; cycle < writerCycles; cycle++ {
			for _, target := range []string{"/admin/reload", "/admin/rollback"} {
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, target, nil))
				if rec.Code != http.StatusOK {
					errc <- fmt.Errorf("cycle %d: POST %s = %d: %s", cycle, target, rec.Code, rec.Body.String())
					break
				}
			}
		}
		stop.Store(true)
		done.Wait()
		close(errc)
		for err := range errc {
			t.Error(err)
		}
		if t.Failed() {
			return
		}
		// Every cycle is exactly one install plus one rollback, each a swap.
		var mp MetricsPayload
		if err := json.Unmarshal(get(t, srv, "/debug/metrics").Body.Bytes(), &mp); err != nil {
			t.Fatal(err)
		}
		if mp.Swaps != 2*writerCycles {
			t.Errorf("swaps = %d, want %d", mp.Swaps, 2*writerCycles)
		}
		if mp.Rollbacks != writerCycles {
			t.Errorf("rollbacks = %d, want %d", mp.Rollbacks, writerCycles)
		}
		// The soak ends rolled back: generation A live, alone in the ring.
		sp := SnapshotsPayload{}
		if err := json.Unmarshal(get(t, srv, "/v1/snapshots").Body.Bytes(), &sp); err != nil {
			t.Fatal(err)
		}
		if sp.Count != 1 || sp.Snapshots[0].ID != "soak-a" || !sp.Snapshots[0].Live {
			t.Errorf("final history: %+v", sp)
		}
	})
}
