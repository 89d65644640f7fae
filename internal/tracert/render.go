package tracert

import (
	"fmt"
	"math"
	"net/netip"
	"strconv"

	"github.com/gamma-suite/gamma/internal/netsim"
)

// The render half of the portability layer runs once per traceroute on
// the study hot path (simProber deliberately round-trips every simulated
// trace through the volunteer's tool output). The renderers append the
// exact bytes the original fmt.Fprintf/json.Marshal implementations
// produced — a differential test pins them against those references —
// into a caller-owned buffer, so a prober that reuses its buffer renders
// without allocating.

// AppendRender appends the tool's native text output for a simulator
// result to dst and returns the extended buffer. The output is
// byte-compatible with what Parse accepts. On error dst is returned
// unchanged.
//
//gamma:hotpath the prober renders every simulated trace into its reused buffer
func AppendRender(dst []byte, res netsim.TraceResult, f Format) ([]byte, error) {
	switch f {
	case FormatLinux:
		return appendLinux(dst, res), nil
	case FormatWindows:
		return appendWindows(dst, res), nil
	case FormatScapy:
		return appendScapy(dst, res)
	case FormatMTR:
		return appendMTR(dst, res), nil
	default:
		return dst, errUnknownFormat(f)
	}
}

// errUnknownFormat reports a Format outside the supported dialects.
//
//gamma:coldpath an unknown dialect is a programming error, never a per-trace cost
func errUnknownFormat(f Format) error {
	return fmt.Errorf("tracert: unknown format %v", f)
}

// errUnsupportedRTT reports an RTT that has no JSON encoding.
//
//gamma:coldpath the simulator never produces non-finite RTTs
func errUnsupportedRTT(ms float64) error {
	return fmt.Errorf("tracert: unsupported RTT value %v", ms)
}

// appendMTR emits `mtr --report` style output: one summary row per hop.
func appendMTR(b []byte, res netsim.TraceResult) []byte {
	b = append(b, "Start: 2024-03-16T09:00:00+0000\n"...)
	b = append(b, "HOST: gamma-volunteer -> "...)
	b = appendAddr(b, res.Dst)
	b = append(b, "    Loss%   Snt   Last   Avg  Best  Wrst StDev\n"...)
	for _, h := range res.Hops {
		b = appendPadInt(b, int64(h.Index), 3)
		if !h.Responded {
			b = append(b, ".|-- ???                      100.0     3    0.0   0.0   0.0   0.0   0.0\n"...)
			continue
		}
		best, wrst, sum := math.Inf(1), 0.0, 0.0
		for _, v := range h.RTTMs {
			if v < best {
				best = v
			}
			if v > wrst {
				wrst = v
			}
			sum += v
		}
		avg := sum / float64(len(h.RTTMs))
		var ss float64
		for _, v := range h.RTTMs {
			ss += (v - avg) * (v - avg)
		}
		stdev := math.Sqrt(ss / float64(len(h.RTTMs)))
		last := h.RTTMs[len(h.RTTMs)-1]
		b = append(b, ".|-- "...)
		addrStart := len(b)
		b = appendAddr(b, h.Addr)
		for len(b)-addrStart < 22 { // %-22s left justification
			b = append(b, ' ')
		}
		b = append(b, "   0.0%   "...)
		b = appendPadInt(b, int64(len(h.RTTMs)), 3)
		b = append(b, ' ', ' ')
		b = appendPadFloat(b, last, 5, 1)
		b = append(b, ' ')
		b = appendPadFloat(b, avg, 5, 1)
		b = append(b, ' ')
		b = appendPadFloat(b, best, 5, 1)
		b = append(b, ' ')
		b = appendPadFloat(b, wrst, 5, 1)
		b = append(b, ' ', ' ')
		b = appendPadFloat(b, stdev, 4, 1)
		b = append(b, '\n')
	}
	return b
}

// appendLinux emits traceroute(8) output.
func appendLinux(b []byte, res netsim.TraceResult) []byte {
	b = append(b, "traceroute to "...)
	b = appendAddr(b, res.Dst)
	b = append(b, " ("...)
	b = appendAddr(b, res.Dst)
	b = append(b, "), 30 hops max, 60 byte packets\n"...)
	for _, h := range res.Hops {
		b = appendPadInt(b, int64(h.Index), 2)
		if !h.Responded {
			b = append(b, "  * * *\n"...)
			continue
		}
		b = append(b, ' ', ' ')
		b = appendAddr(b, h.Addr)
		b = append(b, " ("...)
		b = appendAddr(b, h.Addr)
		b = append(b, ')')
		for _, rtt := range h.RTTMs {
			b = append(b, ' ', ' ')
			b = appendFixedFloat(b, rtt, 3)
			b = append(b, " ms"...)
		}
		b = append(b, '\n')
	}
	return b
}

// appendWindows emits tracert.exe output.
func appendWindows(b []byte, res netsim.TraceResult) []byte {
	b = append(b, "\nTracing route to "...)
	b = appendAddr(b, res.Dst)
	b = append(b, " over a maximum of 30 hops\n\n"...)
	for _, h := range res.Hops {
		b = appendPadInt(b, int64(h.Index), 3)
		if !h.Responded {
			b = append(b, "     *        *        *     Request timed out.\n"...)
			continue
		}
		for _, rtt := range h.RTTMs {
			ms := int(math.Round(rtt))
			if ms < 1 {
				b = append(b, "    <1 ms"...)
			} else {
				b = append(b, ' ', ' ')
				b = appendPadInt(b, int64(ms), 4)
				b = append(b, " ms"...)
			}
		}
		b = append(b, ' ', ' ')
		b = appendAddr(b, h.Addr)
		b = append(b, '\n')
	}
	return append(b, "\nTrace complete.\n"...)
}

// appendScapy emits the JSON record a scapy sr() post-processing script
// writes (scapyRecord), byte-identical to json.Marshal for this schema:
// fields in struct order, omitempty semantics, canonical float encoding.
// The record's strings are IP addresses, so no escaping can occur.
func appendScapy(b []byte, res netsim.TraceResult) ([]byte, error) {
	for _, h := range res.Hops {
		for _, ms := range h.RTTMs {
			if math.IsInf(ms, 0) || math.IsNaN(ms) {
				return b, errUnsupportedRTT(ms)
			}
		}
	}
	b = append(b, `{"target":"`...)
	b = appendAddr(b, res.Dst)
	b = append(b, `","hops":`...)
	if len(res.Hops) == 0 {
		return append(b, "null}"...), nil
	}
	b = append(b, '[')
	for i, h := range res.Hops {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"ttl":`...)
		b = strconv.AppendInt(b, int64(h.Index), 10)
		if h.Responded {
			b = append(b, `,"src":"`...)
			b = appendAddr(b, h.Addr)
			b = append(b, '"')
			if len(h.RTTMs) > 0 {
				b = append(b, `,"rtts_s":[`...)
				for j, ms := range h.RTTMs {
					if j > 0 {
						b = append(b, ',')
					}
					b = appendJSONFloat(b, ms/1000)
				}
				b = append(b, ']')
			}
		}
		b = append(b, '}')
	}
	return append(b, "]}"...), nil
}

// appendAddr appends an address's String() form, including the "invalid
// IP" placeholder fmt would print for a zero Addr.
func appendAddr(b []byte, a netip.Addr) []byte {
	if !a.IsValid() {
		return append(b, "invalid IP"...)
	}
	return a.AppendTo(b)
}

// appendPadInt appends v right-aligned in a field of the given width,
// like fmt's %<width>d.
func appendPadInt(b []byte, v int64, width int) []byte {
	var tmp [20]byte
	s := strconv.AppendInt(tmp[:0], v, 10)
	for i := len(s); i < width; i++ {
		b = append(b, ' ')
	}
	return append(b, s...)
}

// appendPadFloat appends v with prec decimals right-aligned in a field of
// the given width, like fmt's %<width>.<prec>f.
func appendPadFloat(b []byte, v float64, width, prec int) []byte {
	var tmp [40]byte
	s := appendFixedFloat(tmp[:0], v, prec)
	for i := len(s); i < width; i++ {
		b = append(b, ' ')
	}
	return append(b, s...)
}

// appendJSONFloat appends a float in encoding/json's canonical encoding:
// shortest 'f' form, switching to 'e' with a trimmed exponent for very
// small or very large magnitudes.
func appendJSONFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// Clean up e-09 to e-9, as encoding/json does.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}
