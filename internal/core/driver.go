package core

import (
	"context"
	"errors"
	"net/netip"

	"github.com/gamma-suite/gamma/internal/tracert"
)

// RequestRecord is one network request observed during a page load.
type RequestRecord struct {
	URL       string `json:"url"`
	Domain    string `json:"domain"`
	Type      string `json:"type"`
	Initiator string `json:"initiator"`
	Blocked   bool   `json:"blocked,omitempty"`
	// ThirdParty marks requests to a different site than the page.
	ThirdParty bool `json:"third_party,omitempty"`
	// SetCookies names cookies the response set.
	SetCookies []string `json:"set_cookies,omitempty"`
}

// PageRecord is the C1 outcome for one target site.
type PageRecord struct {
	Site       string          `json:"site"`
	URL        string          `json:"url"`
	OK         bool            `json:"ok"`
	FailReason string          `json:"fail_reason,omitempty"`
	DurationMs float64         `json:"duration_ms"`
	Requests   []RequestRecord `json:"requests,omitempty"`
}

// Browser drives isolated browser sessions (C1).
type Browser interface {
	Load(ctx context.Context, siteDomain string) (PageRecord, error)
}

// Resolver performs forward and reverse DNS (C2).
type Resolver interface {
	Resolve(ctx context.Context, domain string) (netip.Addr, error)
	Reverse(ctx context.Context, addr netip.Addr) (string, bool)
}

// ChainResolver is an optional Resolver capability: it reports the CNAME
// chain a resolution traversed. Gamma records chains when available — they
// are how the pipeline detects CNAME-cloaked trackers.
type ChainResolver interface {
	ResolveChain(ctx context.Context, domain string) (netip.Addr, []string, error)
}

// Prober launches active measurement probes (C3). Implementations shell
// out to OS-specific tools; results arrive already normalized through the
// tracert portability layer.
type Prober interface {
	Traceroute(ctx context.Context, dst netip.Addr) (tracert.Normalized, error)
}

// faultError marks a transient infrastructure failure.
type faultError struct{ err error }

// Error returns the wrapped error's text unchanged: the marker is
// transparent so recorded error strings are identical with and without it.
func (e *faultError) Error() string { return e.err.Error() }

func (e *faultError) Unwrap() error { return e.err }

// Fault marks err as a transient driver/infrastructure failure — the
// measurement could not be carried out (browser crashed, resolver
// unreachable, probe socket error) — as opposed to a negative measurement
// *result* such as NXDOMAIN, which is data the suite records. A fault
// aborts its target and is never written into a dataset; the campaign's
// volunteer retry resumes from that target.
func Fault(err error) error {
	if err == nil {
		return nil
	}
	return &faultError{err: err}
}

// IsFault reports whether any error in err's chain was marked with Fault.
func IsFault(err error) bool {
	var f *faultError
	return errors.As(err, &f)
}
