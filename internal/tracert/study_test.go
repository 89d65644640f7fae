package tracert_test

import (
	"context"
	"net/netip"
	"sort"
	"testing"

	"github.com/gamma-suite/gamma"
	"github.com/gamma-suite/gamma/internal/tracert"
)

// TestStudyTracesMatchReference re-traces every traceroute of the seed-42
// and held-out seed-1729 studies, renders each in all four dialects, and
// requires Parse to return exactly what the reference parsers return. The
// re-traced result must also reproduce what the study stored, so the
// corpus is the study's own.
func TestStudyTracesMatchReference(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full studies")
	}
	formats := []tracert.Format{tracert.FormatLinux, tracert.FormatWindows, tracert.FormatScapy, tracert.FormatMTR}
	for _, seed := range []uint64{42, 1729} {
		study, err := gamma.RunStudy(context.Background(), seed)
		if err != nil {
			t.Fatal(err)
		}
		w := study.World
		ccs := make([]string, 0, len(study.Datasets))
		for cc := range study.Datasets {
			ccs = append(ccs, cc)
		}
		sort.Strings(ccs)
		traces := 0
		var buf []byte
		for _, cc := range ccs {
			vol := w.Volunteers[cc]
			for _, page := range study.Datasets[cc].Pages {
				for _, stored := range page.Traceroutes {
					dst, err := netip.ParseAddr(stored.Target)
					if err != nil {
						t.Fatalf("seed %d %s: stored target %q: %v", seed, cc, stored.Target, err)
					}
					res, err := w.Net.Traceroute(vol.VantageID, dst)
					if err != nil {
						t.Fatal(err)
					}
					reproduced := false
					for _, f := range formats {
						if buf, err = tracert.AppendRender(buf[:0], res, f); err != nil {
							t.Fatal(err)
						}
						got, gerr := tracert.Parse(buf)
						want, werr := tracert.ParseReference(string(buf))
						if (gerr == nil) != (werr == nil) || !tracert.SameNormalized(got, want) {
							t.Fatalf("seed %d %s %v: Parse diverged from the reference on %q:\n got %+v (%v)\nwant %+v (%v)",
								seed, cc, f, buf, got, gerr, want, werr)
						}
						reproduced = reproduced || tracert.SameNormalized(got, stored)
					}
					if !reproduced {
						t.Fatalf("seed %d %s: re-trace to %v does not reproduce the stored trace %+v", seed, cc, dst, stored)
					}
					traces++
				}
			}
		}
		if traces == 0 {
			t.Fatalf("seed %d: study recorded no traceroutes", seed)
		}
		t.Logf("seed %d: %d traces x %d dialects match the reference", seed, traces, len(formats))
	}
}
