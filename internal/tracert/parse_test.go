package tracert

import (
	"strings"
	"testing"
	"testing/quick"
)

var allFormats = []Format{FormatLinux, FormatWindows, FormatScapy, FormatMTR}

// checkParse fails t unless Parse and the reference parsers agree on text:
// both fail, or both return the same Normalized.
func checkParse(t *testing.T, name, text string) bool {
	t.Helper()
	got, gerr := Parse([]byte(text))
	want, werr := parseRef(text)
	if (gerr == nil) != (werr == nil) || !sameNormalized(got, want) {
		t.Errorf("%s diverged on %q:\n got %+v (%v)\nwant %+v (%v)", name, text, got, gerr, want, werr)
		return false
	}
	return true
}

// TestParseFastMatchesSlow pins the production parsers against the
// reference Split/Fields and encoding/json parsers on rendered output of
// every dialect.
func TestParseFastMatchesSlow(t *testing.T) {
	f := func(hopCount uint8, responseMask uint16, rttSeed uint16, reached bool) bool {
		res := genResult(hopCount, responseMask, rttSeed, reached)
		for _, format := range allFormats {
			if !checkParse(t, format.String(), mustRender(t, res, format)) {
				return false
			}
		}
		// The canonical scapy record must take the scanner, not the
		// encoding/json fallback.
		sc := mustRender(t, res, FormatScapy)
		if _, _, _, ok := scanScapy([]byte(sc), nil, nil); !ok {
			t.Logf("scanner refused its own renderer's output %q", sc)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestParseMatchesReferenceWhitespace rewrites canonical output with the
// whitespace real tools and hostile inputs carry — tabs, "\r\n" line ends
// (tracert.exe writes them), '\v', '\f', Unicode spaces and invalid UTF-8
// — and requires the reference's strings.Fields/TrimSpace semantics.
func TestParseMatchesReferenceWhitespace(t *testing.T) {
	rewrites := []struct {
		name string
		fn   func(string) string
	}{
		{"tabs", func(s string) string { return strings.ReplaceAll(s, "  ", "\t") }},
		{"crlf", func(s string) string { return strings.ReplaceAll(s, "\n", "\r\n") }},
		{"vtab-ff", func(s string) string {
			return strings.ReplaceAll(strings.ReplaceAll(s, " ms", "\vms"), "\n", "\f\n")
		}},
		{"nbsp", func(s string) string { return strings.ReplaceAll(s, "  ", "\u00a0") }},
		{"ideographic", func(s string) string { return strings.ReplaceAll(s, " ", "\u3000") }},
		{"nel-lead", func(s string) string { return "\u0085\u2028" + s + "\u2029\u205f" }},
		{"en-quad", func(s string) string { return strings.ReplaceAll(s, " (", "\u2000(") }},
		{"zero-width", func(s string) string { return strings.ReplaceAll(s, " ", "\u200b") }},
		{"invalid-utf8", func(s string) string { return strings.ReplaceAll(s, "  ", " \xe2\x80 ") }},
		{"split-space", func(s string) string { return strings.ReplaceAll(s, "  ", "\xe2\xe2\x80\x80") }},
		{"truncated-space", func(s string) string { return s + "\xe2\x80" }},
	}
	res := genResult(9, 0xb6d, 1234, true)
	res.Hops[0].RTTMs = []float64{0.3, 0.2, 0.4} // tracert's "<1 ms"
	for _, format := range allFormats {
		text := mustRender(t, res, format)
		for _, rw := range rewrites {
			checkParse(t, format.String()+"/"+rw.name, rw.fn(text))
		}
	}
}

// TestParseFallbacks pins that non-canonical input parses as the
// reference does: tabs take the same field split as spaces, and scapy
// records with whitespace, escapes or non-JSON numbers go to
// encoding/json, which decodes or refuses them.
func TestParseFallbacks(t *testing.T) {
	lin := "traceroute to 20.0.0.1 (20.0.0.1), 30 hops max, 60 byte packets\n 1\t198.18.0.1 (198.18.0.1)\t1.500 ms\n"
	out, err := ParseLinux([]byte(lin))
	if err != nil || len(out.Hops) != 1 || out.Hops[0].Addr != "198.18.0.1" || len(out.Hops[0].RTTMs) != 1 {
		t.Fatalf("tabbed linux parse = %+v, %v", out, err)
	}
	checkParse(t, "tabbed linux", lin)

	spaced := `{ "target": "20.0.0.1", "hops": [ { "ttl": 1, "src": "198.18.0.1", "rtts_s": [ 0.0015 ] } ] }`
	if _, _, _, ok := scanScapy([]byte(spaced), nil, nil); ok {
		t.Fatal("spaced scapy record should not take the strict scanner")
	}
	norm, err := ParseScapy([]byte(spaced))
	if err != nil || norm.Target != "20.0.0.1" || len(norm.Hops) != 1 || norm.Hops[0].RTTMs[0] != 1.5 {
		t.Fatalf("spaced scapy parse = %+v, %v", norm, err)
	}
	for _, rec := range []string{
		spaced,
		`{"target":"20.0.0.\u0031","hops":null}`,
		`{"target":"20.0.0.1","hops":null}` + "\r\n\t ",
		`{"target":"20.0.0.1","hops":null} x`,
		`{"target":"20.0.0.1","hops":[]}`,
		`{"target":"20.0.0.1","hops":[{"ttl":1,"rtts_s":[]}]}`,
		`{"target":"20.0.0.1","hops":[{"ttl":+1}]}`,
		`{"target":"20.0.0.1","hops":[{"ttl":01}]}`,
		`{"target":"20.0.0.1","hops":[{"ttl":1e0}]}`,
		`{"target":"20.0.0.1","hops":[{"ttl":-0,"src":"x","rtts_s":[-0,1E-3,2.5e+1]}]}`,
		`{"target":"20.0.0.1","hops":[{"ttl":1,"src":"x","rtts_s":[.5]}]}`,
		`{"target":"20.0.0.1","hops":[{"ttl":1,"src":"x","rtts_s":[1.]}]}`,
		`{"target":"20.0.0.1","hops":[{"ttl":1,"src":"x","rtts_s":[1e999]}]}`,
		`{"target":"20.0.0.1","hops":[{"ttl":99999999999999999999}]}`,
		"{\"target\":\"20.0.0.1\x01\",\"hops\":null}",
		"{\"target\":\"20.0.0.1\xff\",\"hops\":null}",
		`{"target":"","hops":null}`,
	} {
		checkParse(t, "scapy", rec)
	}
}

// TestParseDoesNotAliasInput overwrites the parsed buffer and checks the
// result against a deep copy taken before: the prober reuses its buffer
// for the next trace.
func TestParseDoesNotAliasInput(t *testing.T) {
	res := genResult(12, 0xbeef, 321, true)
	for _, format := range allFormats {
		buf, err := AppendRender(nil, res, format)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Parse(buf)
		if err != nil {
			t.Fatalf("%v: %v", format, err)
		}
		want := cloneNormalized(got)
		for i := range buf {
			buf[i] = '#'
		}
		if !sameNormalized(got, want) {
			t.Errorf("%v: result changed with its input buffer:\n got %+v\nwant %+v", format, got, want)
		}
	}
}

// TestParseShape pins the materialized layout: exactly sized, Hops nil
// without hops, RTTMs nil for silent hops, and no hop able to grow into
// its neighbour's samples.
func TestParseShape(t *testing.T) {
	noHops := genResult(0, 0, 7, false)
	noHops.Hops = nil
	for _, format := range allFormats {
		n, err := Parse([]byte(mustRender(t, noHops, format)))
		if err != nil {
			t.Fatalf("%v: %v", format, err)
		}
		if n.Hops != nil {
			t.Errorf("%v: Hops = %#v for a trace without hops, want nil", format, n.Hops)
		}

		res := genResult(12, 0x5a5a, 99, true)
		n, err = Parse([]byte(mustRender(t, res, format)))
		if err != nil {
			t.Fatalf("%v: %v", format, err)
		}
		if cap(n.Hops) != len(n.Hops) {
			t.Errorf("%v: cap(Hops) = %d, len %d", format, cap(n.Hops), len(n.Hops))
		}
		for i, h := range n.Hops {
			if !res.Hops[i].Responded && h.RTTMs != nil {
				t.Errorf("%v hop %d: silent hop has RTTMs %#v", format, i, h.RTTMs)
			}
			if cap(h.RTTMs) != len(h.RTTMs) {
				t.Errorf("%v hop %d: cap(RTTMs) = %d, len %d", format, i, cap(h.RTTMs), len(h.RTTMs))
			}
		}
	}
}

// TestParseAllocs holds the prober path to the materialized result: at
// most three allocations per trace (hops, samples, strings).
func TestParseAllocs(t *testing.T) {
	res := genResult(17, 0xf7ff, 4321, true)
	for _, format := range allFormats {
		buf, err := AppendRender(nil, res, format)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			buf, _ = AppendRender(buf[:0], res, format)
			if _, err := Parse(buf); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 3 {
			t.Errorf("%v: %.1f allocs per render+parse, want <= 3", format, allocs)
		}
	}
}

// BenchmarkRenderParse measures the portability-layer round trip the
// study pays per traceroute, per dialect, on the prober's path: render
// into a reused buffer, then Parse.
func BenchmarkRenderParse(b *testing.B) {
	res := genResult(12, 0xbeef, 321, true)
	for _, f := range allFormats {
		b.Run("prober/"+f.String(), func(b *testing.B) {
			b.ReportAllocs()
			var buf []byte
			for i := 0; i < b.N; i++ {
				var err error
				if buf, err = AppendRender(buf[:0], res, f); err != nil {
					b.Fatal(err)
				}
				if _, err := Parse(buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
