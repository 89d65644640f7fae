package gamma

import (
	"context"
	"fmt"
	"net/netip"
	"time"

	"github.com/gamma-suite/gamma/internal/core"
	"github.com/gamma-suite/gamma/internal/netsim"
	"github.com/gamma-suite/gamma/internal/tlsprobe"
)

// simTLSProber backs core.TLSProber with the world's TLS deployments.
type simTLSProber struct {
	scanner *tlsprobe.Scanner
}

func (s simTLSProber) Scan(_ context.Context, addr netip.Addr, hostname string) (tlsprobe.ScanResult, error) {
	return s.scanner.Scan(addr, hostname), nil
}

// simPinger backs core.Pinger with the data-plane simulator.
type simPinger struct {
	net       *netsim.Network
	vantageID string
}

func (s simPinger) Ping(_ context.Context, addr netip.Addr) (float64, bool, error) {
	return s.net.Ping(s.vantageID, addr)
}

// EnableSecurityProbes turns on the optional C3 probes (testssl-style TLS
// scans and ping) for a volunteer environment produced by VolunteerEnv.
// The paper's main study ran without them; Gamma supports them (§3).
func EnableSecurityProbes(w *World, cc string, env *core.Env, cfg *core.Config) error {
	vol, ok := w.Volunteers[cc]
	if !ok {
		return fmt.Errorf("gamma: no volunteer in %s", cc)
	}
	tls := w.TLS()
	if tls == nil {
		return fmt.Errorf("gamma: world has no TLS deployments")
	}
	env.TLS = simTLSProber{
		scanner: tlsprobe.NewScanner(tls, time.Date(2024, 3, 16, 0, 0, 0, 0, time.UTC)),
	}
	env.Pinger = simPinger{net: w.Net, vantageID: vol.VantageID}
	cfg.TLSScanEnabled = true
	cfg.PingEnabled = true
	return nil
}
