// Package tracert is Gamma's probe-output portability layer (§3 of the
// paper). Field deployments cannot rely on one tool: Scapy's raw sockets
// are unavailable on Windows, so Gamma shells out to the OS tool — Linux
// `traceroute` or Windows `tracert` — whose outputs have different shapes.
// This package renders and parses those dialects, plus scapy JSON and
// `mtr --report`, and normalizes every one of them into an identical JSON
// structure with hop and RTT information, eliminating output variability
// downstream.
package tracert

import (
	"encoding/json"
	"fmt"

	"github.com/gamma-suite/gamma/internal/netsim"
)

// Format identifies a probe-tool output dialect.
type Format int

// The supported dialects.
const (
	FormatLinux   Format = iota // traceroute(8)
	FormatWindows               // tracert.exe
	FormatScapy                 // scapy-based JSON prober
	FormatMTR                   // mtr --report
)

// String names the format.
func (f Format) String() string {
	switch f {
	case FormatLinux:
		return "traceroute"
	case FormatWindows:
		return "tracert"
	case FormatScapy:
		return "scapy"
	case FormatMTR:
		return "mtr"
	default:
		return fmt.Sprintf("Format(%d)", int(f))
	}
}

// NormHop is one hop of the normalized schema.
type NormHop struct {
	Hop   int       `json:"hop"`
	Addr  string    `json:"addr,omitempty"`
	RTTMs []float64 `json:"rtt_ms,omitempty"`
}

// BestRTT returns the minimum probe RTT for the hop, or 0 if unresponsive.
func (h NormHop) BestRTT() float64 {
	if len(h.RTTMs) == 0 {
		return 0
	}
	best := h.RTTMs[0]
	for _, v := range h.RTTMs[1:] {
		if v < best {
			best = v
		}
	}
	return best
}

// Normalized is the tool-independent traceroute record: the "identical
// structure JSON file" Gamma stores regardless of which tool ran.
type Normalized struct {
	Target  string    `json:"target"`
	Reached bool      `json:"reached"`
	Hops    []NormHop `json:"hops"`
}

// FirstHopRTT returns the earliest responding hop's best RTT (used by the
// source-based constraint to subtract local-network delay), or 0.
func (n Normalized) FirstHopRTT() float64 {
	for _, h := range n.Hops {
		if len(h.RTTMs) > 0 {
			return h.BestRTT()
		}
	}
	return 0
}

// LastHopRTT returns the destination's best RTT when reached, or 0.
func (n Normalized) LastHopRTT() float64 {
	if !n.Reached {
		return 0
	}
	for i := len(n.Hops) - 1; i >= 0; i-- {
		if len(n.Hops[i].RTTMs) > 0 {
			return n.Hops[i].BestRTT()
		}
	}
	return 0
}

// JSON renders the canonical normalized encoding.
func (n Normalized) JSON() ([]byte, error) { return json.Marshal(n) }

// FromResult converts a simulator result directly into the normalized form.
func FromResult(res netsim.TraceResult) Normalized {
	out := Normalized{Target: res.Dst.String(), Reached: res.Reached}
	for _, h := range res.Hops {
		nh := NormHop{Hop: h.Index}
		if h.Responded {
			nh.Addr = h.Addr.String()
			nh.RTTMs = append(nh.RTTMs, h.RTTMs...)
		}
		out.Hops = append(out.Hops, nh)
	}
	return out
}
