package tracert

import (
	"encoding/json"
	"fmt"
	"math"
	"net/netip"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"github.com/gamma-suite/gamma/internal/netsim"
)

// The fmt.Fprintf / json.Marshal renderers this package shipped before the
// zero-alloc rewrite, kept verbatim as the reference the differential
// tests compare bytes against.

func renderLinuxRef(res netsim.TraceResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "traceroute to %s (%s), 30 hops max, 60 byte packets\n", res.Dst, res.Dst)
	for _, h := range res.Hops {
		if !h.Responded {
			fmt.Fprintf(&b, "%2d  * * *\n", h.Index)
			continue
		}
		fmt.Fprintf(&b, "%2d  %s (%s)", h.Index, h.Addr, h.Addr)
		for _, rtt := range h.RTTMs {
			fmt.Fprintf(&b, "  %.3f ms", rtt)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func renderWindowsRef(res netsim.TraceResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "\nTracing route to %s over a maximum of 30 hops\n\n", res.Dst)
	for _, h := range res.Hops {
		if !h.Responded {
			fmt.Fprintf(&b, "%3d     *        *        *     Request timed out.\n", h.Index)
			continue
		}
		fmt.Fprintf(&b, "%3d", h.Index)
		for _, rtt := range h.RTTMs {
			ms := int(math.Round(rtt))
			if ms < 1 {
				fmt.Fprintf(&b, "    <1 ms")
			} else {
				fmt.Fprintf(&b, "  %4d ms", ms)
			}
		}
		fmt.Fprintf(&b, "  %s\n", h.Addr)
	}
	b.WriteString("\nTrace complete.\n")
	return b.String()
}

func renderMTRRef(res netsim.TraceResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Start: 2024-03-16T09:00:00+0000\n")
	fmt.Fprintf(&b, "HOST: gamma-volunteer -> %s    Loss%%   Snt   Last   Avg  Best  Wrst StDev\n", res.Dst)
	for _, h := range res.Hops {
		if !h.Responded {
			fmt.Fprintf(&b, "%3d.|-- ???                      100.0     3    0.0   0.0   0.0   0.0   0.0\n", h.Index)
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
		fmt.Fprintf(&b, "%3d.|-- %-22s   0.0%%   %3d  %5.1f %5.1f %5.1f %5.1f  %4.1f\n",
			h.Index, h.Addr, len(h.RTTMs), last, avg, best, wrst, stdev)
	}
	return b.String()
}

func renderScapyRef(res netsim.TraceResult) (string, error) {
	rec := scapyRecord{Target: res.Dst.String()}
	for _, h := range res.Hops {
		sh := scapyHop{TTL: h.Index}
		if h.Responded {
			sh.Src = h.Addr.String()
			for _, ms := range h.RTTMs {
				sh.RTTs = append(sh.RTTs, ms/1000)
			}
		}
		rec.Hops = append(rec.Hops, sh)
	}
	out, err := json.Marshal(rec)
	return string(out), err
}

// TestRenderMatchesReference pins the append-based renderers byte for byte
// against the fmt/json reference implementations over generated traces.
func TestRenderMatchesReference(t *testing.T) {
	f := func(hopCount uint8, responseMask uint16, rttSeed uint16, reached bool) bool {
		res := genResult(hopCount, responseMask, rttSeed, reached)
		if got, want := mustRender(t, res, FormatLinux), renderLinuxRef(res); got != want {
			t.Logf("linux:\n got %q\nwant %q", got, want)
			return false
		}
		if got, want := mustRender(t, res, FormatWindows), renderWindowsRef(res); got != want {
			t.Logf("windows:\n got %q\nwant %q", got, want)
			return false
		}
		if got, want := mustRender(t, res, FormatMTR), renderMTRRef(res); got != want {
			t.Logf("mtr:\n got %q\nwant %q", got, want)
			return false
		}
		got, gerr := render(res, FormatScapy)
		want, werr := renderScapyRef(res)
		if (gerr == nil) != (werr == nil) || got != want {
			t.Logf("scapy:\n got %q (%v)\nwant %q (%v)", got, gerr, want, werr)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// render is AppendRender into a fresh buffer, as a string.
func render(res netsim.TraceResult, f Format) (string, error) {
	b, err := AppendRender(nil, res, f)
	return string(b), err
}

// mustRender renders a dialect that cannot fail on finite RTTs.
func mustRender(t *testing.T, res netsim.TraceResult, f Format) string {
	t.Helper()
	text, err := render(res, f)
	if err != nil {
		t.Fatalf("%v: %v", f, err)
	}
	return text
}

func addr(s string) netip.Addr { return netip.MustParseAddr(s) }

// TestRenderMatchesReferenceEdgeCases covers shapes quick generation can
// miss: no hops, sub-millisecond RTTs, an empty RTT list on a responded
// hop, and an invalid (zero) address.
func TestRenderMatchesReferenceEdgeCases(t *testing.T) {
	cases := []netsim.TraceResult{
		{From: "v", Dst: addr("20.0.0.1")},
		{From: "v", Dst: addr("20.0.0.1"), Hops: []netsim.Hop{
			{Index: 1, Responded: true, Addr: addr("198.18.0.1"), RTTMs: []float64{0.2, 0.4, 0.49}},
			{Index: 2, Responded: true, Addr: addr("198.18.0.2")},
			{Index: 3},
		}},
		{From: "v", Dst: addr("20.0.0.9"), Hops: []netsim.Hop{
			{Index: 1, Responded: true, RTTMs: []float64{1000000.5, 0.0001, 3}},
		}},
	}
	for i, res := range cases {
		if got, want := mustRender(t, res, FormatLinux), renderLinuxRef(res); got != want {
			t.Errorf("case %d linux:\n got %q\nwant %q", i, got, want)
		}
		if got, want := mustRender(t, res, FormatWindows), renderWindowsRef(res); got != want {
			t.Errorf("case %d windows:\n got %q\nwant %q", i, got, want)
		}
		if i != 1 { // both MTR renderers reject a responded hop without RTTs
			if got, want := mustRender(t, res, FormatMTR), renderMTRRef(res); got != want {
				t.Errorf("case %d mtr:\n got %q\nwant %q", i, got, want)
			}
		}
		got, _ := render(res, FormatScapy)
		want, _ := renderScapyRef(res)
		if got != want {
			t.Errorf("case %d scapy:\n got %q\nwant %q", i, got, want)
		}
	}
}

// TestAppendRenderAppends pins the append contract the prober relies on:
// output goes after dst's bytes, and a failed render returns dst as it
// was.
func TestAppendRenderAppends(t *testing.T) {
	res := genResult(5, 0x3f, 77, true)
	for _, f := range []Format{FormatLinux, FormatWindows, FormatScapy, FormatMTR} {
		got, err := AppendRender([]byte("prefix:"), res, f)
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		if want := "prefix:" + mustRender(t, res, f); string(got) != want {
			t.Errorf("%v: AppendRender = %q, want %q", f, got, want)
		}
	}
	bad := genResult(5, 0x3f, 77, true)
	bad.Hops[0].RTTMs = []float64{math.NaN()}
	for _, c := range []struct {
		res netsim.TraceResult
		f   Format
	}{{res, Format(9)}, {bad, FormatScapy}} {
		got, err := AppendRender([]byte("prefix:"), c.res, c.f)
		if err == nil || string(got) != "prefix:" {
			t.Errorf("%v: AppendRender = %q, %v; want the untouched prefix and an error", c.f, got, err)
		}
	}
}

// TestAppendJSONFloatMatchesMarshal pins the canonical float encoding
// against encoding/json across magnitude regimes, including the
// exponent-trimming 'e' branches.
func TestAppendJSONFloatMatchesMarshal(t *testing.T) {
	vals := []float64{0, 0.0005, 0.0123, 1, 1.5, 999.999, 1e-7, 9.99e-7, 1e-9,
		2.5e-21, 1e21, 3.7e22, 123456789.125, 0.1, 1.0 / 3.0}
	for _, v := range vals {
		for _, f := range []float64{v, -v} {
			want, err := json.Marshal(f)
			if err != nil {
				t.Fatal(err)
			}
			if got := string(appendJSONFloat(nil, f)); got != string(want) {
				t.Errorf("appendJSONFloat(%v) = %q, json.Marshal = %q", f, got, want)
			}
		}
	}
}

// TestAppendFixedFloatMatchesStrconv pins the Ryu-routed fixed-point
// formatter against strconv's 'f' output, concentrating on the regimes
// where the layout branch (rather than the fallback) runs: rounding
// carries across powers of ten, leading-zero fractions, tie-adjacent
// magnitudes, and raw random bit patterns.
func TestAppendFixedFloatMatchesStrconv(t *testing.T) {
	check := func(v float64, prec int) {
		t.Helper()
		got := string(appendFixedFloat(nil, v, prec))
		want := string(strconv.AppendFloat(nil, v, 'f', prec, 64))
		if got != want {
			t.Errorf("appendFixedFloat(%g, %d) = %q, strconv = %q", v, prec, got, want)
		}
	}
	fixed := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 0.05, 0.005, 0.0005, 0.00005,
		0.9995, 0.99949999, 9.9995, 99.9995, 999.9995, 999.99949999,
		0.0999999, 0.1, 0.10000001, 1.0 / 3.0, 2.0 / 3.0,
		2.5, 3.5, 0.125, 0.375, 1.0005, 12.3456789,
		1e14, 1e15 - 1, 1e15, 1e16, 1e-7, 1e-8, 5e-4, 4.9999e-4,
		math.Inf(1), math.Inf(-1), math.NaN(),
		math.Nextafter(1, 0), math.Nextafter(1, 2),
		math.Nextafter(0.1, 0), math.Nextafter(0.1, 1),
		math.Nextafter(1000, 0), math.Nextafter(1000, 2000),
		1000000.5, 0.0001, 3, 0.2, 0.4, 0.49, 17.5004999, 17.5005,
	}
	for _, v := range fixed {
		for _, prec := range []int{1, 2, 3, 6, 9} {
			check(v, prec)
			check(-v, prec)
		}
	}
	// Dense sweep around every power of ten the renderers can see, where
	// the exponent estimate and carry handling are most stressed.
	for e := -6; e <= 16; e++ {
		p := math.Pow(10, float64(e))
		for _, f := range []float64{0.9995, 0.99999, 1, 1.00001, 1.0005, 4.99995, 5.00005, 9.9995, 9.99999} {
			for _, prec := range []int{1, 3} {
				check(p*f, prec)
			}
		}
	}
	f := func(bits uint64, precSel uint8) bool {
		v := math.Float64frombits(bits)
		prec := 1 + int(precSel%9)
		got := string(appendFixedFloat(nil, v, prec))
		want := string(strconv.AppendFloat(nil, v, 'f', prec, 64))
		if got != want {
			t.Logf("appendFixedFloat(%b=%g, %d) = %q, strconv = %q", bits, v, prec, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}
