package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"

	"github.com/gamma-suite/gamma/internal/serve"
)

// runSelfcheck boots the server on an ephemeral loopback port and probes
// it as a client would: every enumerated endpoint must serve a 200 whose
// body is byte-identical to the snapshot's precomputed payload, a
// revalidation with the returned ETag must come back 304 and bodiless,
// the health and metrics endpoints must answer, and a same-input hot
// reload must swap without changing a single response byte. No fixed
// port, no golden files on disk: the snapshot itself is the oracle.
func runSelfcheck(srv *serve.Server, snap *serve.Snapshot) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	hs := &http.Server{Handler: srv}
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()
	fmt.Fprintf(os.Stderr, "gammad: selfcheck probing %s\n", base)

	probe := func() error {
		for _, path := range append([]string{"/healthz"}, snap.Endpoints()...) {
			resp, err := http.Get(base + path)
			if err != nil {
				return fmt.Errorf("GET %s: %w", path, err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				return fmt.Errorf("GET %s: %w", path, err)
			}
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("GET %s = %d", path, resp.StatusCode)
			}
			if path == "/healthz" {
				continue
			}
			want, ok := snap.Body(path)
			if !ok {
				return fmt.Errorf("snapshot cannot resolve its own endpoint %s", path)
			}
			if !bytes.Equal(body, want) {
				return fmt.Errorf("GET %s body differs from the precomputed payload", path)
			}
			if resp.Header.Get("Etag") == "" {
				return fmt.Errorf("GET %s served no ETag", path)
			}
		}
		return nil
	}
	if err := probe(); err != nil {
		return fmt.Errorf("selfcheck: %w", err)
	}

	// Conditional-request probe: revalidating with the served ETag must
	// yield a bodiless 304; a stale validator must yield the full 200.
	if err := probeConditional(base + "/v1/countries"); err != nil {
		return fmt.Errorf("selfcheck conditional: %w", err)
	}
	fmt.Fprintf(os.Stderr, "gammad: selfcheck %d endpoints OK (ETag revalidation OK), reloading...\n",
		len(snap.Endpoints())+1)

	// Hot reload with the same inputs: must swap (Swapped=true) and keep
	// every body byte-identical, proving /v1 responses are a pure
	// function of the corpus.
	resp, err := http.Post(base+"/admin/reload", "", nil)
	if err != nil {
		return fmt.Errorf("selfcheck reload: %w", err)
	}
	reloadBody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("selfcheck reload: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("selfcheck reload = %d: %s", resp.StatusCode, reloadBody)
	}
	var rr struct {
		Swapped bool   `json:"swapped"`
		Swaps   uint64 `json:"swaps"`
	}
	if err := json.Unmarshal(reloadBody, &rr); err != nil || !rr.Swapped || rr.Swaps != 1 {
		return fmt.Errorf("selfcheck reload response malformed: %s", reloadBody)
	}
	if err := probe(); err != nil {
		return fmt.Errorf("selfcheck after reload: %w", err)
	}

	// History probe: the ring must now hold both generations with the
	// reloaded one live under its own id, and the original must stay
	// readable through a ?snapshot= time-travel read, byte-identical to
	// the oracle and answered by the original generation itself.
	var sp serve.SnapshotsPayload
	resp, err = http.Get(base + "/v1/snapshots")
	if err != nil {
		return fmt.Errorf("selfcheck snapshots: %w", err)
	}
	err = json.NewDecoder(resp.Body).Decode(&sp)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("selfcheck snapshots: %w", err)
	}
	if sp.Count != 2 || len(sp.Snapshots) != 2 || !sp.Snapshots[0].Live || sp.Snapshots[1].Live {
		return fmt.Errorf("selfcheck snapshots: count=%d, rows=%d", sp.Count, len(sp.Snapshots))
	}
	liveID, histID := sp.Snapshots[0].ID, sp.Snapshots[1].ID
	if histID != snap.Meta().ID || liveID == histID {
		return fmt.Errorf("selfcheck snapshots: live %q, historical %q; want a distinct live id over %q",
			liveID, histID, snap.Meta().ID)
	}
	resp, err = http.Get(base + "/v1/countries?snapshot=" + histID)
	if err != nil {
		return fmt.Errorf("selfcheck historical read: %w", err)
	}
	histBody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return fmt.Errorf("selfcheck historical read = %d: %v", resp.StatusCode, err)
	}
	if got := resp.Header.Get("X-Gamma-Snapshot"); got != histID {
		return fmt.Errorf("selfcheck historical read: ?snapshot=%s answered by generation %q", histID, got)
	}
	if want, _ := snap.Body("/v1/countries"); !bytes.Equal(histBody, want) {
		return fmt.Errorf("selfcheck historical read: ?snapshot=%s body differs from the original generation", histID)
	}

	// Rollback probe: restore the pre-reload generation and verify every
	// endpoint still answers byte-identically (same corpus, same bytes —
	// the pure-function property again, now across install AND rollback).
	resp, err = http.Post(base+"/admin/rollback", "", nil)
	if err != nil {
		return fmt.Errorf("selfcheck rollback: %w", err)
	}
	rollBody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("selfcheck rollback: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("selfcheck rollback = %d: %s", resp.StatusCode, rollBody)
	}
	var rb struct {
		RolledBack bool   `json:"rolled_back"`
		Snapshot   string `json:"snapshot"`
		Swaps      uint64 `json:"swaps"`
	}
	if err := json.Unmarshal(rollBody, &rb); err != nil || !rb.RolledBack || rb.Snapshot != histID || rb.Swaps != 2 {
		return fmt.Errorf("selfcheck rollback response malformed: %s", rollBody)
	}
	if err := probe(); err != nil {
		return fmt.Errorf("selfcheck after rollback: %w", err)
	}

	var mp serve.MetricsPayload
	resp, err = http.Get(base + "/debug/metrics")
	if err != nil {
		return fmt.Errorf("selfcheck metrics: %w", err)
	}
	err = json.NewDecoder(resp.Body).Decode(&mp)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("selfcheck metrics: %w", err)
	}
	if mp.Swaps != 2 || mp.Panics != 0 {
		return fmt.Errorf("selfcheck metrics: swaps=%d panics=%d", mp.Swaps, mp.Panics)
	}
	if mp.Rollbacks != 1 {
		return fmt.Errorf("selfcheck metrics: rollbacks=%d, want 1", mp.Rollbacks)
	}
	fmt.Fprintln(os.Stderr, "gammad: selfcheck OK (probed three times across a live reload and rollback, zero drift)")
	return nil
}

// probeConditional checks the ETag/304 contract on one endpoint.
func probeConditional(url string) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	full, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	etag := resp.Header.Get("Etag")
	if resp.StatusCode != http.StatusOK || etag == "" || len(full) == 0 {
		return fmt.Errorf("GET %s = %d, etag %q", url, resp.StatusCode, etag)
	}
	check := func(validator string, wantStatus int, wantBody bool) error {
		req, err := http.NewRequest(http.MethodGet, url, nil)
		if err != nil {
			return err
		}
		req.Header.Set("If-None-Match", validator)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode != wantStatus {
			return fmt.Errorf("If-None-Match %s → %d, want %d", validator, resp.StatusCode, wantStatus)
		}
		if wantBody != (len(body) > 0) {
			return fmt.Errorf("If-None-Match %s → %d bytes of body, want body=%v", validator, len(body), wantBody)
		}
		return nil
	}
	if err := check(etag, http.StatusNotModified, false); err != nil {
		return err
	}
	if err := check("W/"+etag, http.StatusNotModified, false); err != nil {
		return err
	}
	return check(`"stale-validator"`, http.StatusOK, true)
}
