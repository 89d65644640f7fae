package tracert

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Reference parsers: the original strings.Split/strings.Fields
// implementations of every dialect and the encoding/json-only scapy
// decoder. The production parsers in parse.go must return exactly what
// these return, on every input; TestParseFastMatchesSlow,
// TestParseMatchesReferenceWhitespace, TestStudyTracesMatchReference and
// FuzzParse hold them to it.

// parseRef is Parse over the reference parsers.
func parseRef(text string) (Normalized, error) {
	f, err := Detect([]byte(text))
	if err != nil {
		return Normalized{}, err
	}
	switch f {
	case FormatLinux:
		return parseLinuxRef(text)
	case FormatWindows:
		return parseWindowsRef(text)
	case FormatMTR:
		return parseMTRRef(text)
	default:
		return parseScapyRef(text)
	}
}

func parseLinuxRef(text string) (Normalized, error) {
	lines := strings.Split(strings.TrimSpace(text), "\n")
	if len(lines) == 0 || !strings.HasPrefix(lines[0], "traceroute to ") {
		return Normalized{}, fmt.Errorf("tracert: not traceroute output")
	}
	var out Normalized
	// Header: traceroute to HOST (IP), ...
	if i := strings.Index(lines[0], "("); i >= 0 {
		if j := strings.Index(lines[0][i:], ")"); j > 0 {
			out.Target = lines[0][i+1 : i+j]
		}
	}
	if out.Target == "" {
		return Normalized{}, fmt.Errorf("tracert: malformed traceroute header %q", lines[0])
	}
	for _, line := range lines[1:] {
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		idx, err := strconv.Atoi(fields[0])
		if err != nil {
			return Normalized{}, fmt.Errorf("tracert: bad hop index in %q", line)
		}
		hop := NormHop{Hop: idx}
		if fields[1] != "*" {
			hop.Addr = fields[1]
			for k := 2; k+1 < len(fields); k++ {
				if fields[k+1] == "ms" {
					v, err := strconv.ParseFloat(fields[k], 64)
					if err == nil {
						hop.RTTMs = append(hop.RTTMs, v)
					}
				}
			}
		}
		out.Hops = append(out.Hops, hop)
	}
	return finishRef(out)
}

func parseWindowsRef(text string) (Normalized, error) {
	lines := strings.Split(strings.TrimSpace(text), "\n")
	var out Normalized
	for _, line := range lines {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "Tracing route to ") {
			rest := strings.TrimPrefix(line, "Tracing route to ")
			out.Target = strings.Fields(rest)[0]
			continue
		}
		if line == "" || strings.HasPrefix(line, "Trace complete") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		idx, err := strconv.Atoi(fields[0])
		if err != nil {
			continue // stray prose
		}
		hop := NormHop{Hop: idx}
		if strings.Contains(line, "Request timed out") {
			out.Hops = append(out.Hops, hop)
			continue
		}
		// Fields alternate "<n> ms" or "*" three times, then the address.
		rest := fields[1:]
		for i := 0; i < len(rest); i++ {
			switch {
			case rest[i] == "*":
				// lost probe
			case rest[i] == "<1" && i+1 < len(rest) && rest[i+1] == "ms":
				hop.RTTMs = append(hop.RTTMs, 0.5)
				i++
			case i+1 < len(rest) && rest[i+1] == "ms":
				if v, err := strconv.ParseFloat(rest[i], 64); err == nil {
					hop.RTTMs = append(hop.RTTMs, v)
					i++
				}
			default:
				hop.Addr = rest[i]
			}
		}
		out.Hops = append(out.Hops, hop)
	}
	if out.Target == "" {
		return Normalized{}, fmt.Errorf("tracert: not tracert output")
	}
	return finishRef(out)
}

func parseMTRRef(text string) (Normalized, error) {
	lines := strings.Split(strings.TrimSpace(text), "\n")
	var out Normalized
	for _, line := range lines {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "HOST:") {
			fields := strings.Fields(line)
			for i, f := range fields {
				if f == "->" && i+1 < len(fields) {
					out.Target = fields[i+1]
				}
			}
			continue
		}
		sep := strings.Index(line, ".|--")
		if sep < 0 {
			continue
		}
		idx, err := strconv.Atoi(strings.TrimSpace(line[:sep]))
		if err != nil {
			continue
		}
		fields := strings.Fields(line[sep+len(".|--"):])
		hop := NormHop{Hop: idx}
		if len(fields) >= 7 && fields[0] != "???" {
			hop.Addr = fields[0]
			// fields: addr loss% snt last avg best wrst stdev
			best, err1 := strconv.ParseFloat(fields[5], 64)
			avg, err2 := strconv.ParseFloat(fields[4], 64)
			wrst, err3 := strconv.ParseFloat(fields[6], 64)
			if err1 == nil && err2 == nil && err3 == nil {
				hop.RTTMs = []float64{best, avg, wrst}
			}
		}
		out.Hops = append(out.Hops, hop)
	}
	if out.Target == "" {
		return Normalized{}, fmt.Errorf("tracert: not mtr output")
	}
	return finishRef(out)
}

func parseScapyRef(text string) (Normalized, error) {
	var rec scapyRecord
	if err := json.Unmarshal([]byte(text), &rec); err != nil {
		return Normalized{}, fmt.Errorf("tracert: bad scapy record: %w", err)
	}
	if rec.Target == "" {
		return Normalized{}, fmt.Errorf("tracert: scapy record missing target")
	}
	out := Normalized{Target: rec.Target}
	for _, sh := range rec.Hops {
		hop := NormHop{Hop: sh.TTL, Addr: sh.Src}
		for _, s := range sh.RTTs {
			hop.RTTMs = append(hop.RTTMs, round3(s*1000))
		}
		out.Hops = append(out.Hops, hop)
	}
	return finishRef(out)
}

// finishRef refuses a hop index below 1 and a negative, NaN or infinite
// RTT, and otherwise marks whether the trace reached its target.
func finishRef(out Normalized) (Normalized, error) {
	for _, h := range out.Hops {
		if h.Hop < 1 {
			return Normalized{}, fmt.Errorf("tracert: hop index %d out of range", h.Hop)
		}
		for _, v := range h.RTTMs {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return Normalized{}, fmt.Errorf("tracert: hop %d: RTT %g ms is negative or not finite", h.Hop, v)
			}
		}
	}
	out.Reached = reached(out)
	return out, nil
}

// sameNormalized is reflect.DeepEqual for Normalized with floats compared
// bit for bit, so a -0 sample differs from 0. Nil and empty slices differ, as they do in DeepEqual.
func sameNormalized(a, b Normalized) bool {
	if a.Target != b.Target || a.Reached != b.Reached || len(a.Hops) != len(b.Hops) || (a.Hops == nil) != (b.Hops == nil) {
		return false
	}
	for i := range a.Hops {
		ha, hb := a.Hops[i], b.Hops[i]
		if ha.Hop != hb.Hop || ha.Addr != hb.Addr || len(ha.RTTMs) != len(hb.RTTMs) || (ha.RTTMs == nil) != (hb.RTTMs == nil) {
			return false
		}
		for j := range ha.RTTMs {
			if math.Float64bits(ha.RTTMs[j]) != math.Float64bits(hb.RTTMs[j]) {
				return false
			}
		}
	}
	return true
}

// cloneNormalized deep-copies n into storage it shares with nothing.
func cloneNormalized(n Normalized) Normalized {
	c := Normalized{Target: strings.Clone(n.Target), Reached: n.Reached}
	if n.Hops != nil {
		c.Hops = make([]NormHop, len(n.Hops))
	}
	for i, h := range n.Hops {
		c.Hops[i] = NormHop{Hop: h.Hop, Addr: strings.Clone(h.Addr)}
		if h.RTTMs != nil {
			c.Hops[i].RTTMs = append([]float64{}, h.RTTMs...)
		}
	}
	return c
}
