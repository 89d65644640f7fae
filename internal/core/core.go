// Package core is Gamma itself: the lightweight, highly configurable
// measurement suite from §3 of the paper. It orchestrates the three
// components — C1 browser-level interaction, C2 network information
// gathering (DNS/reverse DNS), and C3 active measurement probes
// (traceroutes to every resolved IP) — against pluggable drivers, records
// everything in a portable JSON dataset, supports volunteer opt-outs and
// resuming interrupted runs, and anonymizes volunteer IPs after analysis.
//
// The driver interfaces (driver.go) are the portability boundary the paper
// describes: in the field they are backed by Selenium, the system resolver
// and the OS traceroute/tracert tools; in this repository they are backed
// by the simulation substrates. core itself imports neither.
//
// A suite measures its targets one at a time, in order, one attempt each.
// A transient driver fault (marked with Fault) aborts its target without
// being recorded; the pages before it are kept, and a later Resume
// re-measures from the first unrecorded target. Retrying is the caller's
// job: the study campaign retries whole volunteers, and each retry
// resumes.
package core

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"time"

	"github.com/gamma-suite/gamma/internal/sched"
	"github.com/gamma-suite/gamma/internal/tlsprobe"
	"github.com/gamma-suite/gamma/internal/tracert"
)

// Clock abstracts time for deterministic datasets.
type Clock interface{ Now() time.Time }

// FixedClock always returns the same instant; the study anchor is the
// data-collection date noted in §8 (the day before Jordan's PDPL).
type FixedClock time.Time

// Now implements Clock.
func (c FixedClock) Now() time.Time { return time.Time(c) }

// StudyClock returns the study's canonical anchor date.
func StudyClock() Clock {
	return FixedClock(time.Date(2024, 3, 16, 9, 0, 0, 0, time.UTC))
}

// Env bundles the drivers the suite runs against. Prober, TLS and Pinger
// are optional capabilities (§3: Gamma "supports the deployment of other
// probes, e.g., ping and TLS").
type Env struct {
	Browser  Browser
	Resolver Resolver
	Prober   Prober
	TLS      TLSProber
	Pinger   Pinger
	Clock    Clock
}

func (e Env) validate() error {
	if e.Browser == nil {
		return fmt.Errorf("core: Env.Browser is required")
	}
	if e.Resolver == nil {
		return fmt.Errorf("core: Env.Resolver is required")
	}
	// Prober may be nil: a volunteer can opt out of traceroutes entirely.
	if e.Clock == nil {
		return fmt.Errorf("core: Env.Clock is required")
	}
	return nil
}

// TargetKind classifies targets.
type TargetKind string

// Target kinds.
const (
	KindRegional   TargetKind = "regional"
	KindGovernment TargetKind = "government"
)

// Target is one website to measure.
type Target struct {
	Domain string     `json:"domain"`
	Kind   TargetKind `json:"kind"`
}

// Config tunes a volunteer's run (§3.1).
type Config struct {
	VolunteerID string `json:"volunteer_id"`
	Country     string `json:"country"`
	// City is the location the volunteer disclosed.
	City string `json:"city"`
	// VolunteerIP is logged by the tool (and anonymized after analysis).
	VolunteerIP string `json:"volunteer_ip"`

	Targets []Target `json:"targets"`
	// OptOutSites are targets the volunteer declined to visit.
	OptOutSites map[string]bool `json:"opt_out_sites,omitempty"`
	// TracerouteEnabled is false when the volunteer opted out of probes.
	TracerouteEnabled bool `json:"traceroute_enabled"`
	// TLSScanEnabled adds testssl-style security scans of every resolved
	// server (off in the paper's main study configuration).
	TLSScanEnabled bool `json:"tls_scan_enabled,omitempty"`
	// PingEnabled adds best-of-three ping probes per resolved server.
	PingEnabled bool `json:"ping_enabled,omitempty"`
}

// DNSRecord is one C2 resolution result.
type DNSRecord struct {
	Domain string `json:"domain"`
	Addr   string `json:"addr,omitempty"`
	RDNS   string `json:"rdns,omitempty"`
	// CNAMEChain lists the aliases traversed (queried name first), when the
	// resolver reports them and the chain has more than one link.
	CNAMEChain []string `json:"cname_chain,omitempty"`
	Err        string   `json:"err,omitempty"`
}

// PageResult bundles everything recorded for one target.
type PageResult struct {
	Target      Target                `json:"target"`
	OptedOut    bool                  `json:"opted_out,omitempty"`
	Load        PageRecord            `json:"load"`
	DNS         []DNSRecord           `json:"dns,omitempty"`
	Traceroutes []tracert.Normalized  `json:"traceroutes,omitempty"`
	TLSScans    []tlsprobe.ScanResult `json:"tls_scans,omitempty"`
	Pings       []PingRecord          `json:"pings,omitempty"`
}

// Dataset is the complete recording a volunteer uploads.
type Dataset struct {
	SchemaVersion int    `json:"schema_version"`
	VolunteerID   string `json:"volunteer_id"`
	Country       string `json:"country"`
	City          string `json:"city"`
	// VolunteerIP is the only identifying datum the tool records; it is
	// blanked by Anonymize after downstream analysis (§3.5).
	VolunteerIP string       `json:"volunteer_ip,omitempty"`
	Anonymized  bool         `json:"anonymized,omitempty"`
	StartedAt   time.Time    `json:"started_at"`
	Pages       []PageResult `json:"pages"`
}

// Anonymize strips the volunteer's IP address in place.
func (d *Dataset) Anonymize() {
	d.VolunteerIP = ""
	d.Anonymized = true
}

// LoadedOK counts targets whose page load succeeded.
func (d *Dataset) LoadedOK() int {
	n := 0
	for _, p := range d.Pages {
		if p.Load.OK {
			n++
		}
	}
	return n
}

// Suite is a configured Gamma instance.
type Suite struct {
	cfg Config
	env Env
}

// New validates the configuration and builds a suite.
func New(cfg Config, env Env) (*Suite, error) {
	if err := env.validate(); err != nil {
		return nil, err
	}
	if cfg.VolunteerID == "" {
		return nil, fmt.Errorf("core: config needs a volunteer ID")
	}
	if len(cfg.Targets) == 0 {
		return nil, fmt.Errorf("core: config needs targets")
	}
	if cfg.TracerouteEnabled && env.Prober == nil {
		return nil, fmt.Errorf("core: traceroutes enabled but Env.Prober is nil")
	}
	if cfg.TLSScanEnabled && env.TLS == nil {
		return nil, fmt.Errorf("core: TLS scans enabled but Env.TLS is nil")
	}
	if cfg.PingEnabled && env.Pinger == nil {
		return nil, fmt.Errorf("core: pings enabled but Env.Pinger is nil")
	}
	return &Suite{cfg: cfg, env: env}, nil
}

// Config returns the suite configuration.
func (s *Suite) Config() Config { return s.cfg }

// NewDataset returns the empty dataset a fresh run would fill. Pair it
// with Resume when the dataset must outlive individual attempts (campaign
// retries, disk checkpoints).
func (s *Suite) NewDataset() *Dataset {
	return &Dataset{
		SchemaVersion: 1,
		VolunteerID:   s.cfg.VolunteerID,
		Country:       s.cfg.Country,
		City:          s.cfg.City,
		VolunteerIP:   s.cfg.VolunteerIP,
		StartedAt:     s.env.Clock.Now(),
	}
}

// Run executes the full measurement and returns a fresh dataset.
func (s *Suite) Run(ctx context.Context) (*Dataset, error) {
	ds := s.NewDataset()
	return ds, s.Resume(ctx, ds)
}

// Resume continues an interrupted run, skipping targets already recorded —
// Gamma "is designed to resume from where it was last stopped" (§3.3).
func (s *Suite) Resume(ctx context.Context, ds *Dataset) error {
	return s.ResumeLimit(ctx, ds, 0)
}

// ResumeLimit resumes but measures at most limit pending targets (0 = all):
// the "run it in chunks" mode the paper offered volunteers.
//
// ds must be a recording by this suite's volunteer whose pages are an
// in-order prefix of Config.Targets; anything else (another volunteer,
// another world's target list) is rejected, marked sched.Permanent, and
// ds is left untouched. Pending targets are measured one at a time, in
// order, and each finished page is appended at once, so the record stays
// an in-order prefix of the targets: a later Resume continues exactly
// where this one stopped, and the final dataset is byte-identical however
// many attempts it took.
func (s *Suite) ResumeLimit(ctx context.Context, ds *Dataset, limit int) error {
	if limit < 0 {
		return fmt.Errorf("core: resume limit must not be negative, got %d (leave 0 to measure every pending target)", limit)
	}
	if err := s.resumable(ds); err != nil {
		return sched.Permanent(err)
	}
	pending := s.cfg.Targets[len(ds.Pages):]
	if limit > 0 && len(pending) > limit {
		pending = pending[:limit]
	}
	for _, t := range pending {
		if err := ctx.Err(); err != nil {
			return err
		}
		page, err := s.measureTarget(ctx, t)
		if err != nil {
			return fmt.Errorf("core: target %s: %w", t.Domain, err)
		}
		ds.Pages = append(ds.Pages, page)
	}
	return nil
}

// resumable reports why ds cannot be resumed by this suite, if it cannot:
// resume appends from len(ds.Pages) on, so a dataset of another volunteer
// or of another target list would mix two recordings in one file.
func (s *Suite) resumable(ds *Dataset) error {
	if ds.VolunteerID != s.cfg.VolunteerID || ds.Country != s.cfg.Country {
		return fmt.Errorf("core: cannot resume the dataset of volunteer %s (%s) as volunteer %s (%s)",
			ds.VolunteerID, ds.Country, s.cfg.VolunteerID, s.cfg.Country)
	}
	for i, p := range ds.Pages {
		if i >= len(s.cfg.Targets) || p.Target != s.cfg.Targets[i] {
			return fmt.Errorf("core: cannot resume: recorded page %d (%s) is not target %d of this configuration",
				i, p.Target.Domain, i)
		}
	}
	return nil
}

// measureTarget runs C1 -> C2 -> C3 for one site, calling each driver
// once. A transient infrastructure fault (Fault) aborts the target
// rather than polluting the dataset, while negative measurement results
// (NXDOMAIN, failed page loads) are recorded as data.
func (s *Suite) measureTarget(ctx context.Context, t Target) (PageResult, error) {
	out := PageResult{Target: t}
	if s.cfg.OptOutSites[t.Domain] {
		out.OptedOut = true
		out.Load = PageRecord{Site: t.Domain, FailReason: "volunteer opt-out"}
		return out, nil
	}

	// C1: browser session. Load errors are infrastructure failures (the
	// simulator reports unreachable pages as data, not errors).
	page, err := s.env.Browser.Load(ctx, t.Domain)
	if err != nil {
		return out, fmt.Errorf("browser: %w", err)
	}
	out.Load = page
	if !page.OK {
		return out, nil
	}

	// C2: forward and reverse DNS for every distinct requested domain.
	// Counting the distinct unblocked domains first sizes the records and
	// maps once; done flips to true as each domain is measured.
	done := map[string]bool{}
	for _, req := range page.Requests {
		if !req.Blocked {
			done[req.Domain] = false
		}
	}
	domains := len(done)
	if domains > 0 {
		out.DNS = make([]DNSRecord, 0, domains)
	}
	chainRes, hasChain := s.env.Resolver.(ChainResolver)
	resolved := make(map[string]netip.Addr, domains)
	for _, req := range page.Requests {
		if req.Blocked || done[req.Domain] {
			continue
		}
		done[req.Domain] = true
		rec := DNSRecord{Domain: req.Domain}
		var (
			addr  netip.Addr
			chain []string
			err   error
		)
		if hasChain {
			addr, chain, err = chainRes.ResolveChain(ctx, req.Domain)
		} else {
			addr, err = s.env.Resolver.Resolve(ctx, req.Domain)
		}
		switch {
		case IsFault(err) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			// A fault or a cancelled lookup is not an answer: abort the
			// target so it is never recorded as data.
			return out, fmt.Errorf("resolver: %w", err)
		case err != nil:
			// A definitive negative answer (NXDOMAIN) is data.
			rec.Err = err.Error()
		default:
			rec.Addr = addr.String()
			if len(chain) > 1 {
				rec.CNAMEChain = chain
			}
			resolved[req.Domain] = addr
			if name, ok := s.env.Resolver.Reverse(ctx, addr); ok {
				rec.RDNS = name
			}
		}
		out.DNS = append(out.DNS, rec)
	}

	// C3 extras: optional TLS and ping probes.
	if err := s.runExtraProbes(ctx, &out, resolved); err != nil {
		return out, err
	}

	// C3: traceroute to every resolved IP (deduplicated per page).
	if s.cfg.TracerouteEnabled && s.env.Prober != nil && len(resolved) > 0 {
		// At most one trace per resolved domain; fewer when domains share
		// an address.
		out.Traceroutes = make([]tracert.Normalized, 0, len(resolved))
		traced := make(map[netip.Addr]bool, len(resolved))
		for _, rec := range out.DNS {
			addr, ok := resolved[rec.Domain]
			if !ok || traced[addr] {
				continue
			}
			traced[addr] = true
			tr, err := s.env.Prober.Traceroute(ctx, addr)
			if err != nil {
				return out, fmt.Errorf("prober: %w", err)
			}
			out.Traceroutes = append(out.Traceroutes, tr)
		}
	}
	return out, nil
}
