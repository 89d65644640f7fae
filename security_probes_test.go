package gamma_test

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	gamma "github.com/gamma-suite/gamma"
	"github.com/gamma-suite/gamma/internal/core"
)

// securityProbedRun runs PK's volunteer with the optional C3 security
// probes on, in a freshly built world, and returns the dataset as JSON.
func securityProbedRun(t *testing.T) (*gamma.Dataset, []byte) {
	t.Helper()
	w, err := gamma.NewWorld(42)
	if err != nil {
		t.Fatal(err)
	}
	sels, err := gamma.SelectTargets(w)
	if err != nil {
		t.Fatal(err)
	}
	env, cfg, err := gamma.VolunteerEnv(w, "PK")
	if err != nil {
		t.Fatal(err)
	}
	if err := gamma.EnableSecurityProbes(w, "PK", &env, &cfg); err != nil {
		t.Fatal(err)
	}
	cfg.Targets = sels["PK"].Targets()
	suite, err := core.New(cfg, env)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := suite.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(ds)
	if err != nil {
		t.Fatal(err)
	}
	return ds, raw
}

// TestEnableSecurityProbes: with the optional probes on, a volunteer
// records TLS scans and pings, and two runs in two worlds built from the
// same seed — each building its TLS deployments on first use — record the
// same bytes.
func TestEnableSecurityProbes(t *testing.T) {
	ds, first := securityProbedRun(t)
	scans, pings := 0, 0
	for _, p := range ds.Pages {
		scans += len(p.TLSScans)
		pings += len(p.Pings)
	}
	if scans == 0 || pings == 0 {
		t.Fatalf("recorded %d TLS scans and %d pings; want both", scans, pings)
	}
	if _, second := securityProbedRun(t); !bytes.Equal(first, second) {
		t.Error("two security-probed runs at the same seed recorded different datasets")
	}
}
