package tracert

import (
	"math"
	"testing"
)

// FuzzParse is a differential: on every input, Parse must return what the
// reference parsers return (both fail, or both produce the same
// Normalized), must not panic, and must not alias its input buffer.
// Whatever parses is structurally sound on its own terms too: target set,
// hop indexes from 1, and every RTT finite and non-negative, as
// Dataset.Validate demands of a stored trace.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"traceroute to 20.0.0.7 (20.0.0.7), 30 hops max, 60 byte packets\n 1  198.18.0.1 (198.18.0.1)  4.100 ms  4.500 ms  4.200 ms\n 2  * * *\n",
		"\nTracing route to 20.0.0.7 over a maximum of 30 hops\n\n  1     4 ms     4 ms     5 ms  198.18.0.1\n\nTrace complete.\n",
		`{"target":"20.0.0.7","hops":[{"ttl":1,"src":"198.18.0.1","rtts_s":[0.004]}]}`,
		"Start: 2024-03-16T09:00:00+0000\nHOST: gamma-volunteer -> 20.0.0.7    Loss%   Snt   Last   Avg  Best  Wrst StDev\n  1.|-- 198.18.0.1               0.0%     3    4.2   4.3   4.1   4.5   0.2\n",
		"traceroute to x (", "HOST:", "{", "", "1.|--",
		"\r\nTracing route to 20.0.0.7 over a maximum of 30 hops\r\n\r\n  1    <1 ms     *       12 ms  20.0.0.7\r\n\r\nTrace complete.\r\n",
		"traceroute to 20.0.0.7 (20.0.0.7)\n 1\t198.18.0.1\u00a0(198.18.0.1)\v4.1 ms\f NaN ms\n",
		`{"target":"20.0.0.7","hops":[{"ttl":1,"src":"20.0.0.7","rtts_s":[1e-3,-0]}]}`,
		"traceroute to x (1.2.3.4)\n-1  1.2.3.4 (1.2.3.4)  -5.000 ms",
		"traceroute to x (1.2.3.4)\n 1  1.2.3.4 (1.2.3.4)  -5.000 ms",
		"Tracing route to 1.2.3.4\n  0    -3 ms     *        *     1.2.3.4\n",
		"HOST: v -> 1.2.3.4  Loss%   Snt   Last   Avg  Best  Wrst StDev\n -2.|-- 1.2.3.4  0.0%  3  4.2  4.3  -4.1  4.5  0.2\n",
		`{"target":"1.2.3.4","hops":[{"ttl":-1,"src":"1.2.3.4","rtts_s":[-0.005,1e306]}]}`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		buf := []byte(text)
		got, gerr := Parse(buf)
		want, werr := parseRef(text)
		if (gerr == nil) != (werr == nil) || !sameNormalized(got, want) {
			t.Fatalf("Parse diverged from the reference on %q:\n got %+v (%v)\nwant %+v (%v)", text, got, gerr, want, werr)
		}
		if gerr != nil {
			return
		}
		if got.Target == "" {
			t.Errorf("successful parse with empty target: %q", text)
		}
		for _, h := range got.Hops {
			if h.Hop < 1 {
				t.Errorf("hop index %d from %q", h.Hop, text)
			}
			if h.BestRTT() < 0 {
				t.Errorf("negative RTT from %q", text)
			}
			for _, v := range h.RTTMs {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("non-finite RTT %g from %q", v, text)
				}
			}
		}
		if !got.Reached && got.LastHopRTT() != 0 {
			t.Errorf("unreached trace with nonzero last-hop RTT from %q", text)
		}
		keep := cloneNormalized(got)
		for i := range buf {
			buf[i] = 0
		}
		if !sameNormalized(got, keep) {
			t.Errorf("result aliases its input buffer: %q", text)
		}
	})
}
