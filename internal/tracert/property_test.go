package tracert

import (
	"math"
	"net/netip"
	"testing"
	"testing/quick"

	"github.com/gamma-suite/gamma/internal/netsim"
)

// genResult builds a structurally valid trace from fuzzed inputs.
func genResult(hopCount uint8, responseMask uint16, rttSeed uint16, reached bool) netsim.TraceResult {
	hops := int(hopCount%18) + 1
	dst := netip.AddrFrom4([4]byte{20, 0, byte(rttSeed >> 8), byte(rttSeed)&0xfe | 1})
	res := netsim.TraceResult{From: "prop", Dst: dst}
	lastResponded := -1
	for i := 1; i <= hops; i++ {
		hop := netsim.Hop{Index: i}
		if responseMask&(1<<uint(i%16)) != 0 {
			hop.Responded = true
			base := float64(rttSeed%500)/10 + float64(i)
			hop.RTTMs = []float64{base, base + 0.5, base + 1.1}
			if i == hops && reached {
				hop.Addr = dst
			} else {
				hop.Addr = netip.AddrFrom4([4]byte{198, 18, byte(i), 1})
			}
			lastResponded = i
		}
		res.Hops = append(res.Hops, hop)
	}
	res.Reached = reached && lastResponded == hops
	return res
}

// TestRenderParsePropertyAllFormats: any structurally valid trace survives
// a render→parse round trip in every dialect with its structure intact.
func TestRenderParsePropertyAllFormats(t *testing.T) {
	formats := []Format{FormatLinux, FormatWindows, FormatScapy}
	f := func(hopCount uint8, responseMask uint16, rttSeed uint16, reached bool) bool {
		res := genResult(hopCount, responseMask, rttSeed, reached)
		want := FromResult(res)
		for _, format := range formats {
			text, err := render(res, format)
			if err != nil {
				return false
			}
			got, err := Parse([]byte(text))
			if err != nil {
				return false
			}
			if got.Target != want.Target || got.Reached != want.Reached || len(got.Hops) != len(want.Hops) {
				return false
			}
			for i := range got.Hops {
				if got.Hops[i].Addr != want.Hops[i].Addr || got.Hops[i].Hop != want.Hops[i].Hop {
					return false
				}
				// RTT precision differs per dialect; 1ms tolerance covers
				// tracert's integer rounding.
				if math.Abs(got.Hops[i].BestRTT()-want.Hops[i].BestRTT()) > 1.0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

// TestFirstLastHopProperty: FirstHopRTT comes from the earliest responding
// hop and LastHopRTT is zero exactly when the trace failed.
func TestFirstLastHopProperty(t *testing.T) {
	f := func(hopCount uint8, responseMask uint16, rttSeed uint16, reached bool) bool {
		n := FromResult(genResult(hopCount, responseMask, rttSeed, reached))
		if !n.Reached && n.LastHopRTT() != 0 {
			return false
		}
		if n.Reached && n.LastHopRTT() <= 0 {
			return false
		}
		first := n.FirstHopRTT()
		for _, h := range n.Hops {
			if len(h.RTTMs) > 0 {
				return first == h.BestRTT()
			}
		}
		return first == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
