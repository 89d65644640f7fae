package gamma

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"testing"

	"github.com/gamma-suite/gamma/internal/tracert"
)

// TestSimProberResultOutlivesBuffers: the prober renders every trace into
// one reused buffer, so a returned Normalized must not alias it. Parse a
// trace, scribble over the buffer, run a second trace through the same
// prober, and the first result must still encode as it did — in every
// dialect.
func TestSimProberResultOutlivesBuffers(t *testing.T) {
	ctx := context.Background()
	w, err := NewWorld(42)
	if err != nil {
		t.Fatal(err)
	}
	env, _, err := VolunteerEnv(w, "PK")
	if err != nil {
		t.Fatal(err)
	}
	p, ok := env.Prober.(*simProber)
	if !ok {
		t.Fatalf("PK volunteer prober is %T, want *simProber", env.Prober)
	}
	first, err := env.Resolver.Resolve(ctx, w.Tranco[0])
	if err != nil {
		t.Fatal(err)
	}
	second, err := env.Resolver.Resolve(ctx, w.Tranco[1])
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []tracert.Format{tracert.FormatLinux, tracert.FormatWindows, tracert.FormatScapy, tracert.FormatMTR} {
		p.format = f
		got, err := p.Traceroute(ctx, first)
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		if len(got.Hops) == 0 {
			t.Fatalf("%v: trace to %v has no hops", f, first)
		}
		want, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		scribble := p.out[:cap(p.out)]
		for i := range scribble {
			scribble[i] = '#'
		}
		if _, err := p.Traceroute(ctx, second); err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		if after, _ := json.Marshal(got); !bytes.Equal(after, want) {
			t.Errorf("%v: first trace changed under the reused buffer:\n got %s\nwant %s", f, after, want)
		}
		// The normalized RTTs track the simulator's, within the dialect's
		// printed precision (tracert.exe prints whole milliseconds).
		res, err := w.Net.Traceroute(p.vantageID, first)
		if err != nil {
			t.Fatal(err)
		}
		if d := math.Abs(got.LastHopRTT() - tracert.FromResult(res).LastHopRTT()); d > 1 {
			t.Errorf("%v: last-hop RTT off by %.3f ms after the round trip", f, d)
		}
	}
}
