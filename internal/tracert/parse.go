package tracert

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// The parse half of the portability layer takes a tool's output as the
// bytes a process writes (exec.Cmd.Output) and stores nothing but the
// result. Each dialect has one parser, which scans the buffer in place,
// keeps its hops as byte ranges and RTTs in stack scratch, and then
// materializes an exactly sized Normalized in three allocations: the
// []NormHop, one []float64 cut into per-hop RTTMs with full slice
// expressions, and one string whose substrings are Target and every hop
// Addr. The result never aliases the input, so a caller may reuse its
// buffer as soon as Parse returns.
//
// Whitespace follows strings.Fields and strings.TrimSpace exactly
// (unicode.IsSpace, invalid UTF-8 as non-space), so tabs, "\r\n" line
// ends, '\v', '\f' and Unicode spaces parse as the original
// Split/Fields parsers did; those live on in the tests as references.

// scratch is a parser's stack storage. Its sizes cover the simulator's
// 30-hop, 3-probe traces and the widest canonical line; longer input
// spills to the heap and still parses.
type scratch struct {
	hops   [32]hopSpan
	rtts   [96]float64
	fields [16][]byte
}

// hopSpan is a parsed hop before materialization: its address as a
// sub-slice of the source and its samples as a range of the RTT scratch.
type hopSpan struct {
	hop          int
	addr         []byte
	rttLo, rttHi int
}

// Detect guesses the dialect of a probe-tool output.
func Detect(out []byte) (Format, error) {
	t := bytes.TrimSpace(out)
	switch {
	case bytes.HasPrefix(t, []byte("traceroute to ")):
		return FormatLinux, nil
	case bytes.HasPrefix(t, []byte("Tracing route to ")):
		return FormatWindows, nil
	case bytes.HasPrefix(t, []byte("{")):
		return FormatScapy, nil
	case bytes.HasPrefix(t, []byte("Start:")) || bytes.HasPrefix(t, []byte("HOST:")):
		return FormatMTR, nil
	default:
		return 0, fmt.Errorf("tracert: unrecognized output (starts %q)", head(t, 24))
	}
}

func head(b []byte, n int) []byte {
	if len(b) <= n {
		return b
	}
	return b[:n]
}

// Parse auto-detects the dialect and normalizes the output.
func Parse(out []byte) (Normalized, error) {
	f, err := Detect(out)
	if err != nil {
		return Normalized{}, err
	}
	switch f {
	case FormatLinux:
		return ParseLinux(out)
	case FormatWindows:
		return ParseWindows(out)
	case FormatMTR:
		return ParseMTR(out)
	default:
		return ParseScapy(out)
	}
}

// ParseLinux parses traceroute(8) output.
func ParseLinux(out []byte) (Normalized, error) {
	line, rest := cutLine(bytes.TrimSpace(out))
	if !bytes.HasPrefix(line, []byte("traceroute to ")) {
		return Normalized{}, fmt.Errorf("tracert: not traceroute output")
	}
	// Header: traceroute to HOST (IP), ...
	var target []byte
	if i := bytes.IndexByte(line, '('); i >= 0 {
		if j := bytes.IndexByte(line[i:], ')'); j > 0 {
			target = line[i+1 : i+j]
		}
	}
	if len(target) == 0 {
		return Normalized{}, fmt.Errorf("tracert: malformed traceroute header %q", line)
	}
	var sc scratch
	hops, rtts, fields := sc.hops[:0], sc.rtts[:0], sc.fields[:0]
	for len(rest) > 0 {
		line, rest = cutLine(rest)
		fields = appendFields(fields[:0], line)
		if len(fields) < 2 {
			continue
		}
		idx, err := atoi(fields[0])
		if err != nil {
			return Normalized{}, fmt.Errorf("tracert: bad hop index in %q", line)
		}
		h := hopSpan{hop: idx, rttLo: len(rtts)}
		if string(fields[1]) != "*" {
			h.addr = fields[1]
			for k := 2; k+1 < len(fields); k++ {
				if string(fields[k+1]) == "ms" {
					if v, err := parseFloat(fields[k]); err == nil {
						rtts = append(rtts, v)
					}
				}
			}
		}
		h.rttHi = len(rtts)
		hops = append(hops, h)
	}
	return finish(target, hops, rtts)
}

// ParseWindows parses tracert.exe output.
func ParseWindows(out []byte) (Normalized, error) {
	var sc scratch
	hops, rtts, fields := sc.hops[:0], sc.rtts[:0], sc.fields[:0]
	var target []byte
	rest := bytes.TrimSpace(out)
	for len(rest) > 0 {
		var line []byte
		line, rest = cutLine(rest)
		line = bytes.TrimSpace(line)
		if tail, ok := bytes.CutPrefix(line, []byte("Tracing route to ")); ok {
			if fields = appendFields(fields[:0], tail); len(fields) > 0 {
				target = fields[0]
			}
			continue
		}
		if len(line) == 0 || bytes.HasPrefix(line, []byte("Trace complete")) {
			continue
		}
		fields = appendFields(fields[:0], line)
		if len(fields) < 2 {
			continue
		}
		idx, err := atoi(fields[0])
		if err != nil {
			continue // stray prose
		}
		h := hopSpan{hop: idx, rttLo: len(rtts)}
		if !bytes.Contains(line, []byte("Request timed out")) {
			// Fields alternate "<n> ms" or "*" three times, then the address.
			fs := fields[1:]
			for i := 0; i < len(fs); i++ {
				switch {
				case string(fs[i]) == "*":
					// lost probe
				case string(fs[i]) == "<1" && i+1 < len(fs) && string(fs[i+1]) == "ms":
					rtts = append(rtts, 0.5)
					i++
				case i+1 < len(fs) && string(fs[i+1]) == "ms":
					if v, err := parseFloat(fs[i]); err == nil {
						rtts = append(rtts, v)
						i++
					}
				default:
					h.addr = fs[i]
				}
			}
		}
		h.rttHi = len(rtts)
		hops = append(hops, h)
	}
	if len(target) == 0 {
		return Normalized{}, fmt.Errorf("tracert: not tracert output")
	}
	return finish(target, hops, rtts)
}

// ParseMTR parses `mtr --report` output. Only Best/Avg/Wrst are
// recoverable; they become the normalized probe samples.
func ParseMTR(out []byte) (Normalized, error) {
	var sc scratch
	hops, rtts, fields := sc.hops[:0], sc.rtts[:0], sc.fields[:0]
	var target []byte
	rest := bytes.TrimSpace(out)
	for len(rest) > 0 {
		var line []byte
		line, rest = cutLine(rest)
		line = bytes.TrimSpace(line)
		if bytes.HasPrefix(line, []byte("HOST:")) {
			fields = appendFields(fields[:0], line)
			for i, f := range fields {
				if string(f) == "->" && i+1 < len(fields) {
					target = fields[i+1]
				}
			}
			continue
		}
		sep := bytes.Index(line, []byte(".|--"))
		if sep < 0 {
			continue
		}
		idx, err := atoi(bytes.TrimSpace(line[:sep]))
		if err != nil {
			continue
		}
		fields = appendFields(fields[:0], line[sep+len(".|--"):])
		h := hopSpan{hop: idx, rttLo: len(rtts)}
		if len(fields) >= 7 && string(fields[0]) != "???" {
			h.addr = fields[0]
			// fields: addr loss% snt last avg best wrst stdev
			best, err1 := parseFloat(fields[5])
			avg, err2 := parseFloat(fields[4])
			wrst, err3 := parseFloat(fields[6])
			if err1 == nil && err2 == nil && err3 == nil {
				rtts = append(rtts, best, avg, wrst)
			}
		}
		h.rttHi = len(rtts)
		hops = append(hops, h)
	}
	if len(target) == 0 {
		return Normalized{}, fmt.Errorf("tracert: not mtr output")
	}
	return finish(target, hops, rtts)
}

// scapyRecord mirrors the JSON a scapy sr() post-processing script emits.
type scapyRecord struct {
	Target string     `json:"target"`
	Hops   []scapyHop `json:"hops"`
}

type scapyHop struct {
	TTL  int       `json:"ttl"`
	Src  string    `json:"src,omitempty"`
	RTTs []float64 `json:"rtts_s,omitempty"` // scapy reports seconds
}

// ParseScapy parses the scapy JSON record. A strict scanner reads the
// canonical compact shape straight into the result; anything else
// (whitespace, escapes, reordered keys, non-ASCII) is decoded by
// encoding/json, whose result the scanner matches on every input it
// accepts.
func ParseScapy(out []byte) (Normalized, error) {
	var sc scratch
	target, hops, rtts, ok := scanScapy(out, sc.hops[:0], sc.rtts[:0])
	if !ok {
		var rec scapyRecord
		if err := json.Unmarshal(out, &rec); err != nil {
			return Normalized{}, fmt.Errorf("tracert: bad scapy record: %w", err)
		}
		target, hops, rtts = []byte(rec.Target), sc.hops[:0], sc.rtts[:0]
		for _, sh := range rec.Hops {
			h := hopSpan{hop: sh.TTL, addr: []byte(sh.Src), rttLo: len(rtts)}
			for _, s := range sh.RTTs {
				rtts = append(rtts, round3(s*1000))
			}
			h.rttHi = len(rtts)
			hops = append(hops, h)
		}
	}
	if len(target) == 0 {
		return Normalized{}, fmt.Errorf("tracert: scapy record missing target")
	}
	return finish(target, hops, rtts)
}

// scanScapy reads the exact record shape appendScapy emits: no
// insignificant whitespace inside, JSON-grammar numbers, strings without
// escapes, control bytes or non-ASCII. ok is false for anything else.
func scanScapy(s []byte, hops []hopSpan, rtts []float64) (target []byte, _ []hopSpan, _ []float64, ok bool) {
	var found bool
	if s, found = bytes.CutPrefix(s, []byte(`{"target":"`)); !found {
		return nil, hops, rtts, false
	}
	if target, s, found = cutJSONString(s); !found {
		return nil, hops, rtts, false
	}
	if s, found = bytes.CutPrefix(s, []byte(`,"hops":`)); !found {
		return nil, hops, rtts, false
	}
	if s, found = bytes.CutPrefix(s, []byte("null}")); found {
		return target, hops, rtts, jsonSpace(s)
	}
	if s, found = bytes.CutPrefix(s, []byte("[")); !found {
		return nil, hops, rtts, false
	}
	for {
		if s, found = bytes.CutPrefix(s, []byte(`{"ttl":`)); !found {
			return nil, hops, rtts, false
		}
		end := jsonNumberLen(s)
		if end == 0 || bytes.ContainsAny(s[:end], ".eE") {
			return nil, hops, rtts, false // not an int: encoding/json refuses it
		}
		ttl, err := atoi(s[:end])
		if err != nil {
			return nil, hops, rtts, false
		}
		s = s[end:]
		h := hopSpan{hop: ttl, rttLo: len(rtts)}
		if s, found = bytes.CutPrefix(s, []byte(`,"src":"`)); found {
			if h.addr, s, found = cutJSONString(s); !found {
				return nil, hops, rtts, false
			}
		}
		if s, found = bytes.CutPrefix(s, []byte(`,"rtts_s":[`)); found {
			for {
				end := jsonNumberLen(s)
				if end == 0 {
					return nil, hops, rtts, false
				}
				v, err := parseFloat(s[:end])
				if err != nil {
					return nil, hops, rtts, false
				}
				rtts = append(rtts, round3(v*1000))
				s = s[end:]
				if s, found = bytes.CutPrefix(s, []byte(",")); !found {
					break
				}
			}
			if s, found = bytes.CutPrefix(s, []byte("]")); !found {
				return nil, hops, rtts, false
			}
		}
		if s, found = bytes.CutPrefix(s, []byte("}")); !found {
			return nil, hops, rtts, false
		}
		h.rttHi = len(rtts)
		hops = append(hops, h)
		if s, found = bytes.CutPrefix(s, []byte(",")); !found {
			break
		}
	}
	if s, found = bytes.CutPrefix(s, []byte("]}")); !found {
		return nil, hops, rtts, false
	}
	return target, hops, rtts, jsonSpace(s)
}

// cutJSONString splits s after a string body's closing quote. found is
// false when the body holds an escape, a control byte or a non-ASCII byte,
// whose decoding only encoding/json does.
func cutJSONString(s []byte) (body, rest []byte, found bool) {
	for i, c := range s {
		switch {
		case c == '"':
			return s[:i], s[i+1:], true
		case c == '\\' || c < ' ' || c >= utf8.RuneSelf:
			return nil, s, false
		}
	}
	return nil, s, false
}

// jsonNumberLen returns the length of the JSON number
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? at the start of s, or 0.
func jsonNumberLen(s []byte) int {
	i := 0
	if i < len(s) && s[i] == '-' {
		i++
	}
	switch {
	case i < len(s) && s[i] == '0':
		i++
	case i < len(s) && s[i] >= '1' && s[i] <= '9':
		i = digitsEnd(s, i)
	default:
		return 0
	}
	if i < len(s) && s[i] == '.' {
		j := digitsEnd(s, i+1)
		if j == i+1 {
			return 0
		}
		i = j
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		i++
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		j := digitsEnd(s, i)
		if j == i {
			return 0
		}
		i = j
	}
	return i
}

func digitsEnd(s []byte, i int) int {
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		i++
	}
	return i
}

// jsonSpace reports whether s is only JSON insignificant whitespace.
func jsonSpace(s []byte) bool {
	for _, c := range s {
		if c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return false
		}
	}
	return true
}

func round3(v float64) float64 { return math.Round(v*1000) / 1000 }

// finish refuses what no probe tool prints and Dataset.Validate would
// refuse on load, a hop index below 1 or an RTT that is negative or not
// finite, and otherwise materializes the parse.
func finish(target []byte, hops []hopSpan, rtts []float64) (Normalized, error) {
	for _, h := range hops {
		if h.hop < 1 {
			return Normalized{}, errHopIndex(h.hop)
		}
		for _, v := range rtts[h.rttLo:h.rttHi] {
			if !validRTT(v) {
				return Normalized{}, errRTT(h.hop, v)
			}
		}
	}
	return normalize(target, hops, rtts), nil
}

// validRTT reports whether v is a finite, non-negative RTT.
func validRTT(v float64) bool { return v >= 0 && v <= math.MaxFloat64 }

func errHopIndex(hop int) error { return fmt.Errorf("tracert: hop index %d out of range", hop) }

func errRTT(hop int, v float64) error {
	return fmt.Errorf("tracert: hop %d: RTT %g ms is negative or not finite", hop, v)
}

// normalize materializes a parse: exactly sized, three allocations, no
// reference into the source buffer. Hops stays nil without hops, RTTMs
// nil for a hop without samples.
func normalize(target []byte, hops []hopSpan, rtts []float64) Normalized {
	size := len(target)
	for _, h := range hops {
		size += len(h.addr)
	}
	var sb strings.Builder
	sb.Grow(size)
	sb.Write(target)
	for _, h := range hops {
		sb.Write(h.addr)
	}
	strs := sb.String()
	n := Normalized{Target: strs[:len(target)]}
	if len(hops) > 0 {
		n.Hops = make([]NormHop, len(hops))
	}
	var samples []float64
	if len(rtts) > 0 {
		samples = make([]float64, len(rtts))
		copy(samples, rtts)
	}
	off := len(target)
	for i, h := range hops {
		n.Hops[i] = NormHop{Hop: h.hop, Addr: strs[off : off+len(h.addr)]}
		off += len(h.addr)
		if h.rttHi > h.rttLo {
			n.Hops[i].RTTMs = samples[h.rttLo:h.rttHi:h.rttHi]
		}
	}
	n.Reached = reached(n)
	return n
}

// reached infers completion: the last responding hop answered from the
// target address itself.
func reached(n Normalized) bool {
	for i := len(n.Hops) - 1; i >= 0; i-- {
		if n.Hops[i].Addr != "" {
			return n.Hops[i].Addr == n.Target
		}
	}
	return false
}

// cutLine splits off the first line of s.
func cutLine(s []byte) (line, rest []byte) {
	if i := bytes.IndexByte(s, '\n'); i >= 0 {
		return s[:i], s[i+1:]
	}
	return s, nil
}

// appendFields appends the fields of line to dst exactly as
// strings.Fields splits them: around runs of unicode.IsSpace runes, with
// invalid UTF-8 bytes counting as non-space.
func appendFields(dst [][]byte, line []byte) [][]byte {
	i := 0
	for {
		for i < len(line) {
			if c := line[i]; c < utf8.RuneSelf {
				if !asciiSpace[c] {
					break
				}
				i++
			} else if r, w := utf8.DecodeRune(line[i:]); unicode.IsSpace(r) {
				i += w
			} else {
				break
			}
		}
		if i == len(line) {
			return dst
		}
		start := i
		for i < len(line) {
			if c := line[i]; c < utf8.RuneSelf {
				if asciiSpace[c] {
					break
				}
				i++
			} else if r, w := utf8.DecodeRune(line[i:]); !unicode.IsSpace(r) {
				i += w
			} else {
				break
			}
		}
		dst = append(dst, line[start:i])
	}
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// atoi and parseFloat are strconv's, on a field of the buffer. A field
// within the compiler's 32-byte stack buffer converts without allocating.
func atoi(b []byte) (int, error) { return strconv.Atoi(string(b)) }

func parseFloat(b []byte) (float64, error) { return strconv.ParseFloat(string(b), 64) }
