package gamma_test

import (
	"context"
	"net/netip"
	"testing"

	gamma "github.com/gamma-suite/gamma"
)

func TestLocalizedWorldScenario(t *testing.T) {
	before, err := gamma.NewWorld(21)
	if err != nil {
		t.Fatal(err)
	}
	after, err := gamma.NewLocalizedWorld(21, "JO")
	if err != nil {
		t.Fatal(err)
	}
	diff, err := gamma.RunScenario(context.Background(), before, after, "JO")
	if err != nil {
		t.Fatal(err)
	}
	if diff.BeforePct < 20 {
		t.Fatalf("baseline Jordan non-local rate = %.1f%%, expected substantial", diff.BeforePct)
	}
	if diff.AfterPct > diff.BeforePct/3 {
		t.Errorf("post-localization rate = %.1f%% (before %.1f%%), expected a collapse",
			diff.AfterPct, diff.BeforePct)
	}
	if diff.AfterDomains >= diff.BeforeDomains {
		t.Errorf("non-local domains did not drop: %d -> %d", diff.BeforeDomains, diff.AfterDomains)
	}
	if len(diff.Departed) == 0 {
		t.Error("some destination countries should have lost Jordan's flows")
	}
	// A different country must be unaffected by Jordan's localization.
	other, err := gamma.RunScenario(context.Background(), before, after, "PK")
	if err != nil {
		t.Fatal(err)
	}
	if other.AfterPct < other.BeforePct*0.6 {
		t.Errorf("Pakistan rate changed drastically (%.1f%% -> %.1f%%) though only Jordan localized",
			other.BeforePct, other.AfterPct)
	}
}

func TestCompareGeoDBs(t *testing.T) {
	study := fullStudy(t)
	accs := gamma.CompareGeoDBs(study.World)
	if len(accs) != 4 { // ipmap + 3 commercial
		t.Fatalf("db comparisons = %d, want 4", len(accs))
	}
	byName := map[string]gamma.DBAccuracy{}
	for _, a := range accs {
		byName[a.DB] = a
	}
	ipmap := byName["ripe-ipmap"]
	if ipmap.CountryPct < 88 {
		t.Errorf("ipmap country accuracy = %.1f%%, want ~92%%", ipmap.CountryPct)
	}
	for _, name := range []string{"maxmind-sim", "dbip-sim", "ipinfo-sim"} {
		alt := byName[name]
		if alt.Entries == 0 {
			t.Fatalf("%s is empty", name)
		}
		if alt.CoveragePct < ipmap.CoveragePct-2 {
			t.Errorf("%s coverage %.1f%% should rival ipmap's %.1f%%", name, alt.CoveragePct, ipmap.CoveragePct)
		}
		if alt.CityPct >= ipmap.CityPct {
			t.Errorf("%s city accuracy %.1f%% should trail ipmap's %.1f%%", name, alt.CityPct, ipmap.CityPct)
		}
	}
	// dbip (the weakest profile) must be least accurate at country level.
	if byName["dbip-sim"].CountryPct >= byName["ipinfo-sim"].CountryPct {
		t.Errorf("dbip (%.1f%%) should trail ipinfo (%.1f%%)",
			byName["dbip-sim"].CountryPct, byName["ipinfo-sim"].CountryPct)
	}
}

func TestClassifyWithDBFlips(t *testing.T) {
	study := fullStudy(t)
	w := study.World
	var addrs []netip.Addr
	for _, h := range w.Net.Hosts() {
		addrs = append(addrs, h.Addr)
		if len(addrs) >= 500 {
			break
		}
	}
	flips := gamma.ClassifyWithDB(w, "PK", w.AltDBs()["dbip-sim"], addrs)
	if flips == 0 {
		t.Error("switching provider should flip some local/non-local verdicts")
	}
	if flips > len(addrs)/2 {
		t.Errorf("too many flips (%d/%d); databases mostly agree in reality", flips, len(addrs))
	}
	// Same database: zero flips.
	if n := gamma.ClassifyWithDB(w, "PK", w.IPMap, addrs); n != 0 {
		t.Errorf("identical databases flipped %d verdicts", n)
	}
}
