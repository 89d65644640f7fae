package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/gamma-suite/gamma/internal/sched"
)

// Options tunes a Server. The zero value is production-ready.
type Options struct {
	// Clock paces the concurrency limiter and stamps latencies. Nil uses
	// sched.Wall(); tests inject sched.NewFakeClock so overload and
	// latency behaviour is driven without wall-clock sleeps.
	Clock sched.Clock
	// MaxConcurrent bounds in-flight requests; <= 0 uses 256. Excess
	// requests wait up to AcquireTimeout for a slot, then shed with 503.
	MaxConcurrent int
	// AcquireTimeout is the per-request bound on waiting for a concurrency
	// slot; <= 0 uses 1s. Together with the daemon's http.Server
	// read/write deadlines this is the request-timeout story: in-memory
	// payload writes cannot block, so waiting for admission is the only
	// place a request can stall inside the handler.
	AcquireTimeout time.Duration
	// Reload, when set, backs POST /admin/reload: it builds a replacement
	// snapshot (typically by re-analyzing a dataset directory or re-running
	// a seeded study). Errors — from Reload itself or from pre-swap
	// validation — leave the current snapshot serving and report 422.
	Reload func(ctx context.Context, params url.Values) (*Snapshot, error)
}

// Admin request bounds: /admin/* accepts only trivially small inputs
// (reload parameters travel in the query string), so anything larger is
// rejected up front with a structured 413 instead of being read.
const (
	maxAdminBody  = 1 << 16 // bytes of request body drained before refusing
	maxQueryBytes = 4096    // raw query-string length bound, all endpoints
)

// Preallocated header values: writing them is a map assignment of a
// shared slice, not a per-request allocation. Handlers never mutate them.
var (
	contentTypeJSON = []string{"application/json"}
	allowGetHead    = []string{"GET, HEAD"}
	allowPost       = []string{"POST"}
)

var healthPayload = mustPayload(struct {
	Status string `json:"status"`
}{"ok"})

func mustPayload(v any) payload {
	pl, err := newPayload(v)
	if err != nil {
		panic(err)
	}
	return pl
}

// Server is the HTTP front end over a Store. Its hot path — route,
// admit, look up a precomputed payload, write (or answer an
// If-None-Match revalidation with a 304) — performs zero heap
// allocations per request (pinned by TestHotEndpointsZeroAllocs).
type Server struct {
	store          *Store
	clock          sched.Clock
	sem            chan struct{}
	acquireTimeout time.Duration
	reload         func(ctx context.Context, params url.Values) (*Snapshot, error)
	reloadMu       sync.Mutex // single-flight: concurrent reloads/rollbacks would race to swap
	m              metrics
	start          time.Time
}

// New builds a Server over store.
func New(store *Store, opts Options) *Server {
	clock := opts.Clock
	if clock == nil {
		clock = sched.Wall()
	}
	maxc := opts.MaxConcurrent
	if maxc <= 0 {
		maxc = 256
	}
	timeout := opts.AcquireTimeout
	if timeout <= 0 {
		timeout = time.Second
	}
	return &Server{
		store:          store,
		clock:          clock,
		sem:            make(chan struct{}, maxc),
		acquireTimeout: timeout,
		reload:         opts.Reload,
		start:          clock.Now(),
	}
}

// errorBody is the structured shape of every non-200 response.
type errorBody struct {
	Status int    `json:"status"`
	Error  string `json:"error"`
	Path   string `json:"path,omitempty"`
}

// ServeHTTP implements http.Handler with panic recovery and per-endpoint
// accounting around the routed handler.
//
//gamma:hotpath every request enters here; 200s are zero-allocation
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := s.clock.Now()
	ep, arg := route(r.URL.Path)
	defer func() {
		if p := recover(); p != nil {
			s.m.panics.Add(1)
			s.writeError(w, http.StatusInternalServerError, "internal server error", "")
			s.m.observe(ep, http.StatusInternalServerError, s.clock.Now().Sub(start))
		}
	}()
	status := s.serve(w, r, ep, arg)
	s.m.observe(ep, status, s.clock.Now().Sub(start))
}

// serve dispatches one routed request and returns the response status.
func (s *Server) serve(w http.ResponseWriter, r *http.Request, ep endpoint, arg string) int {
	switch ep {
	case epReload:
		return s.handleReload(w, r)
	case epRollback:
		return s.handleRollback(w, r)
	}
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header()["Allow"] = allowGetHead
		return s.writeError(w, http.StatusMethodNotAllowed, "method not allowed", "")
	}
	// Admission control. The uncontended path is a non-blocking channel
	// send; only under saturation do we fall into the blocking wait.
	select {
	case s.sem <- struct{}{}:
	default:
		if status := s.admitWait(w, r); status != 0 {
			return status
		}
	}
	defer s.release()

	switch ep {
	case epHealth:
		return s.writeConditional(w, r, healthPayload, nil)
	case epMetrics:
		return s.handleMetrics(w, r)
	case epSnapshots:
		return s.handleSnapshots(w, r)
	case epUnknown:
		return s.writeError(w, http.StatusNotFound, "not found", r.URL.Path)
	default:
		if r.URL.RawQuery != "" {
			if status := s.maybeServeHistorical(w, r, ep, arg); status != 0 {
				return status
			}
		}
		snap := s.store.Load()
		pl, ok := snap.payloadFor(ep, arg)
		if !ok {
			return s.writeError(w, http.StatusNotFound, "not found", r.URL.Path)
		}
		return s.writeConditional(w, r, pl, snap.idHeader)
	}
}

// admitWait blocks for an admission slot under saturation and returns 0
// once one is acquired, or the 503 status it wrote when the acquire
// timeout fires or the client goes away first. Waiting happens on the
// injected clock so load-shedding is testable on a fake clock; blocking —
// and the timer channel it arms — is definitionally the slow path, which
// is why this lives outside the zero-allocation admission fast path.
//
//gamma:coldpath contended admission arms a timer and may write a 503; the uncontended send in serve stays hot
func (s *Server) admitWait(w http.ResponseWriter, r *http.Request) int {
	select {
	case s.sem <- struct{}{}:
		return 0
	case <-s.clock.After(s.acquireTimeout):
		s.m.overloads.Add(1)
		return s.writeError(w, http.StatusServiceUnavailable, "overloaded: no capacity within the admission timeout", "")
	case <-r.Context().Done():
		return s.writeError(w, http.StatusServiceUnavailable, "client went away while awaiting admission", "")
	}
}

func (s *Server) release() { <-s.sem }

// writeConditional serves a precomputed payload, honoring conditional
// requests: when the client's If-None-Match matches the payload's
// precomputed entity tag, the body is elided and a 304 goes out instead.
// Both branches write only preallocated header slices — revalidation is
// on the same zero-allocation contract as a full response.
//
//gamma:hotpath 200/304 emission must write preallocated state only
func (s *Server) writeConditional(w http.ResponseWriter, r *http.Request, pl payload, idHeader []string) int {
	if inm := r.Header["If-None-Match"]; len(inm) > 0 && etagMatches(inm, pl.etag[0]) {
		h := w.Header()
		h["Etag"] = pl.etag
		if idHeader != nil {
			h["X-Gamma-Snapshot"] = idHeader
		}
		w.WriteHeader(http.StatusNotModified)
		return http.StatusNotModified
	}
	s.writePayload(w, r, pl, idHeader)
	return http.StatusOK
}

// maybeServeHistorical handles ?snapshot=<id> time-travel reads against
// the history ring. It returns 0 when the request carries no snapshot
// parameter — the caller falls through to the live generation — and the
// written status otherwise.
//
//gamma:coldpath time-travel reads parse the query string and probe the history ring
func (s *Server) maybeServeHistorical(w http.ResponseWriter, r *http.Request, ep endpoint, arg string) int {
	if len(r.URL.RawQuery) > maxQueryBytes {
		return s.writeError(w, http.StatusRequestEntityTooLarge, "query string exceeds the request bound", r.URL.Path)
	}
	q, err := url.ParseQuery(r.URL.RawQuery)
	if err != nil {
		return s.writeError(w, http.StatusBadRequest, "malformed query string", r.URL.Path)
	}
	id := q.Get("snapshot")
	if id == "" {
		return 0
	}
	snap, ok := s.store.hist.byID(id)
	if !ok {
		return s.writeError(w, http.StatusNotFound, "snapshot "+id+" not in history", r.URL.Path)
	}
	pl, ok := snap.payloadFor(ep, arg)
	if !ok {
		return s.writeError(w, http.StatusNotFound, "not found", r.URL.Path)
	}
	return s.writeConditional(w, r, pl, snap.idHeader)
}

// etagMatches reports whether any member of an If-None-Match header
// matches the payload's entity tag. It implements the weak comparison
// RFC 9110 prescribes for If-None-Match (a W/ prefix on the client's
// validator is ignored) plus the * wildcard, scanning the comma-joined
// list without allocating; malformed members simply never match.
func etagMatches(values []string, tag string) bool {
	for _, list := range values {
		for len(list) > 0 {
			switch list[0] {
			case ' ', '\t', ',':
				list = list[1:]
				continue
			case '*':
				return true
			}
			if len(list) >= 2 && list[0] == 'W' && list[1] == '/' {
				list = list[2:]
			}
			if len(list) == 0 || list[0] != '"' {
				break // malformed member: no match possible in this value
			}
			end := strings.IndexByte(list[1:], '"')
			if end < 0 {
				break
			}
			if list[:end+2] == tag {
				return true
			}
			list = list[end+2:]
		}
	}
	return false
}

// writePayload emits a precomputed 200 response. All header values are
// preallocated slices, so this writes without allocating.
func (s *Server) writePayload(w http.ResponseWriter, r *http.Request, pl payload, idHeader []string) {
	h := w.Header()
	h["Content-Type"] = contentTypeJSON
	h["Content-Length"] = pl.clen
	h["Etag"] = pl.etag
	if idHeader != nil {
		h["X-Gamma-Snapshot"] = idHeader
	}
	w.WriteHeader(http.StatusOK)
	if r.Method != http.MethodHead {
		w.Write(pl.body)
	}
}

// writeError emits the structured error body. Error paths may allocate;
// only 200s are on the zero-allocation contract.
//
//gamma:coldpath error responses marshal JSON; only 200s are zero-alloc
func (s *Server) writeError(w http.ResponseWriter, status int, msg, path string) int {
	body, err := json.Marshal(errorBody{Status: status, Error: msg, Path: path})
	if err != nil {
		status = http.StatusInternalServerError
		body = []byte(`{"status":500,"error":"response encoding failure"}`)
	}
	h := w.Header()
	h["Content-Type"] = contentTypeJSON
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	w.Write(body)
	return status
}

// writeJSON emits a marshaled 200 body with the standard headers.
//
//gamma:coldpath admin/observability responses marshal JSON per request
func (s *Server) writeJSON(w http.ResponseWriter, r *http.Request, v any) int {
	body, err := json.Marshal(v)
	if err != nil {
		return s.writeError(w, http.StatusInternalServerError, "response encoding failure", "")
	}
	h := w.Header()
	h["Content-Type"] = contentTypeJSON
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	if r.Method != http.MethodHead {
		w.Write(body)
	}
	return http.StatusOK
}

// handleMetrics serves /debug/metrics: snapshot identity plus the
// per-endpoint counters and latency histograms.
//
//gamma:coldpath observability endpoint materializes counters and marshals JSON
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) int {
	now := s.clock.Now()
	snap := s.store.Load()
	return s.writeJSON(w, r, MetricsPayload{
		Snapshot: SnapshotInfo{
			ID:        snap.meta.ID,
			BuiltAt:   snap.meta.BuiltAt,
			Countries: len(snap.codes),
			Trackers:  len(snap.domains),
		},
		UptimeMs:  now.Sub(s.start).Milliseconds(),
		Swaps:     s.store.Swaps(),
		Panics:    s.m.panics.Load(),
		Overloads: s.m.overloads.Load(),
		Rollbacks: s.m.rollbacks.Load(),
		Endpoints: s.m.collect(),
	})
}

// handleSnapshots serves /v1/snapshots: the history ring, newest first,
// with the live generation marked.
//
//gamma:coldpath history listing marshals the ring per request
func (s *Server) handleSnapshots(w http.ResponseWriter, r *http.Request) int {
	return s.writeJSON(w, r, s.store.hist.list())
}

// boundAdminRequest enforces the admin input bounds: an oversized query
// string or request body is refused with a structured 413 before any of
// it is interpreted. The body is drained through a LimitReader so a
// client cannot stream an unbounded payload into the handler.
//
//gamma:coldpath admin-only bounding drains a size-capped body
func (s *Server) boundAdminRequest(w http.ResponseWriter, r *http.Request) int {
	if len(r.URL.RawQuery) > maxQueryBytes {
		return s.writeError(w, http.StatusRequestEntityTooLarge, "query string exceeds the admin bound", "")
	}
	if r.ContentLength > maxAdminBody {
		return s.writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds the admin bound", "")
	}
	if r.Body != nil {
		n, _ := io.Copy(io.Discard, io.LimitReader(r.Body, maxAdminBody+1))
		if n > maxAdminBody {
			return s.writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds the admin bound", "")
		}
	}
	return 0
}

// reloadResponse is the POST /admin/reload success body.
type reloadResponse struct {
	Swapped   bool   `json:"swapped"`
	Snapshot  string `json:"snapshot"`
	Countries int    `json:"countries"`
	Trackers  int    `json:"trackers"`
	Swaps     uint64 `json:"swaps"`
}

// handleReload rebuilds and hot-swaps the snapshot. The swap is
// validation-gated: a reloader error or a replacement that fails
// Snapshot.validate leaves the current snapshot serving and reports 422,
// so a bad dataset can never take the service down or leave it
// misserving.
//
//gamma:coldpath admin reload rebuilds and revalidates a whole snapshot
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) int {
	if r.Method != http.MethodPost {
		w.Header()["Allow"] = allowPost
		return s.writeError(w, http.StatusMethodNotAllowed, "reload requires POST", "")
	}
	if s.reload == nil {
		return s.writeError(w, http.StatusNotImplemented, "no reloader configured", "")
	}
	if status := s.boundAdminRequest(w, r); status != 0 {
		return status
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	snap, err := s.reload(r.Context(), r.URL.Query())
	if err != nil {
		return s.writeError(w, http.StatusUnprocessableEntity,
			"reload failed, snapshot "+s.store.Load().meta.ID+" still serving: "+err.Error(), "")
	}
	if err := s.store.Install(snap); err != nil {
		return s.writeError(w, http.StatusUnprocessableEntity, err.Error(), "")
	}
	return s.writeJSON(w, r, reloadResponse{
		Swapped:   true,
		Snapshot:  snap.meta.ID,
		Countries: len(snap.codes),
		Trackers:  len(snap.domains),
		Swaps:     s.store.Swaps(),
	})
}

// rollbackResponse is the POST /admin/rollback success body.
type rollbackResponse struct {
	RolledBack bool   `json:"rolled_back"`
	Snapshot   string `json:"snapshot"`
	Countries  int    `json:"countries"`
	Trackers   int    `json:"trackers"`
	Swaps      uint64 `json:"swaps"`
}

// handleRollback restores the previously installed snapshot from the
// history ring. With no predecessor left it refuses with 409 and the
// live generation keeps serving.
//
//gamma:coldpath admin rollback marshals its response body
func (s *Server) handleRollback(w http.ResponseWriter, r *http.Request) int {
	if r.Method != http.MethodPost {
		w.Header()["Allow"] = allowPost
		return s.writeError(w, http.StatusMethodNotAllowed, "rollback requires POST", "")
	}
	if status := s.boundAdminRequest(w, r); status != 0 {
		return status
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	prev, err := s.store.Rollback()
	if err != nil {
		return s.writeError(w, http.StatusConflict, err.Error(), "")
	}
	s.m.rollbacks.Add(1)
	return s.writeJSON(w, r, rollbackResponse{
		RolledBack: true,
		Snapshot:   prev.meta.ID,
		Countries:  len(prev.codes),
		Trackers:   len(prev.domains),
		Swaps:      s.store.Swaps(),
	})
}
