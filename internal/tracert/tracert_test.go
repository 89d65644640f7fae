package tracert

import (
	"math"
	"net/netip"
	"strings"
	"testing"

	"github.com/gamma-suite/gamma/internal/geo"
	"github.com/gamma-suite/gamma/internal/netsim"
)

// sampleResult builds a reached trace with a silent middle hop.
func sampleResult() netsim.TraceResult {
	dst := netip.MustParseAddr("20.0.0.7")
	return netsim.TraceResult{
		From: "vol-x",
		Dst:  dst,
		Hops: []netsim.Hop{
			{Index: 1, Addr: netip.MustParseAddr("198.18.0.1"), RTTMs: []float64{4.1, 4.5, 4.2}, Responded: true},
			{Index: 2},
			{Index: 3, Addr: netip.MustParseAddr("198.18.0.3"), RTTMs: []float64{11.9, 12.4, 12.0}, Responded: true},
			{Index: 4, Addr: dst, RTTMs: []float64{22.7, 23.1, 22.9}, Responded: true},
		},
		Reached: true,
	}
}

func TestRenderParseRoundTripAllFormats(t *testing.T) {
	res := sampleResult()
	want := FromResult(res)
	for _, f := range []Format{FormatLinux, FormatWindows, FormatScapy} {
		text, err := render(res, f)
		if err != nil {
			t.Fatalf("%v: render: %v", f, err)
		}
		got, err := Parse([]byte(text))
		if err != nil {
			t.Fatalf("%v: parse: %v", f, err)
		}
		if got.Target != want.Target {
			t.Errorf("%v: target %q, want %q", f, got.Target, want.Target)
		}
		if got.Reached != want.Reached {
			t.Errorf("%v: reached %v, want %v", f, got.Reached, want.Reached)
		}
		if len(got.Hops) != len(want.Hops) {
			t.Fatalf("%v: %d hops, want %d", f, len(got.Hops), len(want.Hops))
		}
		for i := range got.Hops {
			if got.Hops[i].Hop != want.Hops[i].Hop {
				t.Errorf("%v hop %d: index %d", f, i, got.Hops[i].Hop)
			}
			if got.Hops[i].Addr != want.Hops[i].Addr {
				t.Errorf("%v hop %d: addr %q, want %q", f, i, got.Hops[i].Addr, want.Hops[i].Addr)
			}
			// Windows rounds to whole ms; allow 1ms slack. Others are near-exact.
			tol := 0.01
			if f == FormatWindows {
				tol = 1.0
			}
			if math.Abs(got.Hops[i].BestRTT()-want.Hops[i].BestRTT()) > tol {
				t.Errorf("%v hop %d: RTT %.3f, want %.3f (tol %.2f)", f, i, got.Hops[i].BestRTT(), want.Hops[i].BestRTT(), tol)
			}
		}
	}
}

// TestNormalizedStructureIdentical verifies the paper's key portability
// claim: regardless of which tool produced the output, the normalized JSON
// has the identical structure (same hops, same addresses, same reach bit).
func TestNormalizedStructureIdentical(t *testing.T) {
	res := sampleResult()
	var structures []string
	for _, f := range []Format{FormatLinux, FormatWindows, FormatScapy} {
		text, err := render(res, f)
		if err != nil {
			t.Fatal(err)
		}
		n, err := Parse([]byte(text))
		if err != nil {
			t.Fatal(err)
		}
		// Erase RTT precision differences; compare structure.
		for i := range n.Hops {
			if len(n.Hops[i].RTTMs) > 0 {
				n.Hops[i].RTTMs = []float64{math.Round(n.Hops[i].BestRTT())}
			}
		}
		js, err := n.JSON()
		if err != nil {
			t.Fatal(err)
		}
		structures = append(structures, string(js))
	}
	if structures[0] != structures[1] || structures[1] != structures[2] {
		t.Errorf("normalized structures differ:\n%s\n%s\n%s", structures[0], structures[1], structures[2])
	}
}

func TestUnreachedTrace(t *testing.T) {
	res := sampleResult()
	res.Reached = false
	res.Hops[3] = netsim.Hop{Index: 4} // destination silent
	for _, f := range []Format{FormatLinux, FormatWindows, FormatScapy} {
		text, _ := render(res, f)
		n, err := Parse([]byte(text))
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		if n.Reached {
			t.Errorf("%v: unreached trace parsed as reached", f)
		}
		if n.LastHopRTT() != 0 {
			t.Errorf("%v: unreached trace must report 0 last-hop RTT", f)
		}
		if n.FirstHopRTT() == 0 {
			t.Errorf("%v: first hop responded; RTT should be nonzero", f)
		}
	}
}

func TestSubMillisecondWindows(t *testing.T) {
	res := sampleResult()
	res.Hops[0].RTTMs = []float64{0.3, 0.4, 0.2}
	text, _ := render(res, FormatWindows)
	if !strings.Contains(text, "<1 ms") {
		t.Fatalf("expected <1 ms rendering:\n%s", text)
	}
	n, err := ParseWindows([]byte(text))
	if err != nil {
		t.Fatal(err)
	}
	if rtt := n.Hops[0].BestRTT(); rtt != 0.5 {
		t.Errorf("sub-ms hop parsed as %.2f, want 0.5 placeholder", rtt)
	}
}

func TestDetect(t *testing.T) {
	cases := []struct {
		text string
		want Format
		err  bool
	}{
		{"traceroute to 1.2.3.4 (1.2.3.4), 30 hops max", FormatLinux, false},
		{"\nTracing route to 1.2.3.4 over a maximum of 30 hops\n", FormatWindows, false},
		{`{"target":"1.2.3.4","hops":[]}`, FormatScapy, false},
		{"ping statistics", 0, true},
	}
	for _, tc := range cases {
		got, err := Detect([]byte(tc.text))
		if tc.err {
			if err == nil {
				t.Errorf("Detect(%q) should fail", tc.text)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("Detect(%q) = %v, %v; want %v", tc.text, got, err, tc.want)
		}
	}
}

func TestParseMalformed(t *testing.T) {
	bad := []string{
		"",
		"traceroute to malformed-header",
		`{"hops":[]}`, // scapy missing target
		"{not json",
		// A hop index below 1 or a negative or non-finite RTT, in every
		// dialect: Dataset.Validate refuses them on load, so a live suite
		// must not record them.
		"traceroute to x (1.2.3.4)\n-1  1.2.3.4 (1.2.3.4)  -5.000 ms",
		"traceroute to x (1.2.3.4)\n 0  1.2.3.4 (1.2.3.4)  5.000 ms",
		"traceroute to x (1.2.3.4)\n 1  1.2.3.4 (1.2.3.4)  -5.000 ms",
		"traceroute to x (1.2.3.4)\n 1  1.2.3.4 (1.2.3.4)  NaN ms",
		"traceroute to x (1.2.3.4)\n 1  1.2.3.4 (1.2.3.4)  +Inf ms",
		"Tracing route to 1.2.3.4\n  0     3 ms     *        *     1.2.3.4\n",
		"Tracing route to 1.2.3.4\n  1    -3 ms     *        *     1.2.3.4\n",
		"HOST: v -> 1.2.3.4  Loss%  Snt  Last  Avg  Best  Wrst StDev\n -2.|-- 1.2.3.4  0.0%  3  4.2  4.3  4.1  4.5  0.2\n",
		"HOST: v -> 1.2.3.4  Loss%  Snt  Last  Avg  Best  Wrst StDev\n  1.|-- 1.2.3.4  0.0%  3  4.2  4.3  -4.1  4.5  0.2\n",
		`{"target":"1.2.3.4","hops":[{"ttl":0,"src":"1.2.3.4","rtts_s":[0.005]}]}`,
		`{"target":"1.2.3.4","hops":[{"ttl":1,"src":"1.2.3.4","rtts_s":[-0.005]}]}`,
		`{"target":"1.2.3.4","hops":[{"ttl":1,"src":"1.2.3.4","rtts_s":[1e306]}]}`,
		`{"target":"1.2.3.4", "hops":[{"ttl":1,"src":"1.2.3.4","rtts_s":[-0.005]}]}`,
	}
	for _, text := range bad {
		if n, err := Parse([]byte(text)); err == nil {
			t.Errorf("Parse(%q) = %+v, should fail", text, n)
		}
		if _, err := parseRef(text); err == nil {
			t.Errorf("reference parse of %q should fail", text)
		}
	}
}

func TestParseLinuxRejectsBadHopIndex(t *testing.T) {
	text := "traceroute to 1.2.3.4 (1.2.3.4), 30 hops max\n x  1.1.1.1 (1.1.1.1)  1.0 ms\n"
	if _, err := ParseLinux([]byte(text)); err == nil {
		t.Error("bad hop index should fail")
	}
}

func TestParseWindowsLostProbes(t *testing.T) {
	text := "Tracing route to 9.9.9.9 over a maximum of 30 hops\n\n" +
		"  1     5 ms     *        6 ms  10.0.0.1\n" +
		"\nTrace complete.\n"
	n, err := ParseWindows([]byte(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Hops) != 1 || len(n.Hops[0].RTTMs) != 2 {
		t.Fatalf("partial probe loss: got %+v", n.Hops)
	}
	if n.Hops[0].Addr != "10.0.0.1" {
		t.Errorf("addr = %q", n.Hops[0].Addr)
	}
}

func TestFromSimulatedTracerouteEndToEnd(t *testing.T) {
	// A full loop: simulate, render in all three dialects, parse, and check
	// the RTT geometry survives the portability layer.
	n := netsim.New(netsim.DefaultConfig(21))
	reg := geo.Default()
	_ = n.AddAS(netsim.AS{Number: 5, Name: "x", Org: "x", Country: "TH"})
	bkk, _ := reg.City("Bangkok, TH")
	sgp, _ := reg.City("Singapore, SG")
	v, _ := n.AddVantage(netsim.Vantage{ID: "vol-th", City: bkk, ASN: 5, AccessDelayMs: 7})
	for i := 0; i < 30; i++ {
		h, _ := n.AddHost(netsim.Host{City: sgp, ASN: 5, Responsive: true})
		res, err := n.Traceroute(v.ID, h.Addr)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Reached {
			continue
		}
		for _, f := range []Format{FormatLinux, FormatWindows, FormatScapy} {
			text, err := render(res, f)
			if err != nil {
				t.Fatal(err)
			}
			parsed, err := Parse([]byte(text))
			if err != nil {
				t.Fatalf("%v: %v\n%s", f, err, text)
			}
			if !parsed.Reached {
				t.Fatalf("%v: reached trace parsed as unreached", f)
			}
			d := geo.DistanceKm(bkk.Coord, sgp.Coord)
			if geo.ViolatesSOL(d, parsed.LastHopRTT()+1) {
				t.Fatalf("%v: parsed RTT %.2f violates SOL after round-trip", f, parsed.LastHopRTT())
			}
		}
		return // one reached trace fully validated is enough
	}
	t.Fatal("no trace reached in 30 attempts")
}

func TestFormatString(t *testing.T) {
	if FormatLinux.String() != "traceroute" || FormatWindows.String() != "tracert" || FormatScapy.String() != "scapy" {
		t.Error("format names wrong")
	}
	if Format(9).String() == "" {
		t.Error("unknown format should still print")
	}
}

func TestMTRRoundTrip(t *testing.T) {
	res := sampleResult()
	text, err := render(res, FormatMTR)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "???") {
		t.Error("silent hop should render as ???")
	}
	got, err := Parse([]byte(text)) // auto-detect
	if err != nil {
		t.Fatal(err)
	}
	want := FromResult(res)
	if got.Target != want.Target || got.Reached != want.Reached || len(got.Hops) != len(want.Hops) {
		t.Fatalf("mtr structure mismatch: %+v", got)
	}
	for i := range got.Hops {
		if got.Hops[i].Addr != want.Hops[i].Addr {
			t.Errorf("hop %d addr %q want %q", i, got.Hops[i].Addr, want.Hops[i].Addr)
		}
		if math.Abs(got.Hops[i].BestRTT()-want.Hops[i].BestRTT()) > 0.11 {
			t.Errorf("hop %d best %.2f want %.2f", i, got.Hops[i].BestRTT(), want.Hops[i].BestRTT())
		}
	}
	if f, err := Detect([]byte(text)); err != nil || f != FormatMTR {
		t.Errorf("Detect = %v, %v", f, err)
	}
	if FormatMTR.String() != "mtr" {
		t.Error("mtr name")
	}
	if _, err := ParseMTR([]byte("garbage")); err == nil {
		t.Error("garbage must not parse as mtr")
	}
}
