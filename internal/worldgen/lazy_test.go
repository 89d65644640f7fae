package worldgen_test

import (
	"context"
	"sync"
	"testing"

	gamma "github.com/gamma-suite/gamma"
	"github.com/gamma-suite/gamma/internal/geodb"
	"github.com/gamma-suite/gamma/internal/tlsprobe"
	"github.com/gamma-suite/gamma/internal/worldgen"
)

// TestDefaultStudyBuildsNoOptionalParts: a study without the optional C3
// scans or the database comparison reads neither the TLS deployments nor
// the commercial databases, so a whole default study must leave both
// unbuilt — the world build's cost depends on it.
func TestDefaultStudyBuildsNoOptionalParts(t *testing.T) {
	s, err := gamma.RunStudyWithOptions(context.Background(), 42, gamma.StudyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if tls, alt := worldgen.OptionalPartsBuilt(s.World); tls || alt {
		t.Fatalf("a default study built TLS=%v AltDBs=%v; want neither", tls, alt)
	}
	if s.World.TLS() == nil || len(s.World.AltDBs()) == 0 {
		t.Fatal("the optional parts must build on first use")
	}
	if tls, alt := worldgen.OptionalPartsBuilt(s.World); !tls || !alt {
		t.Fatalf("after first use TLS=%v AltDBs=%v are not recorded as built", tls, alt)
	}
}

// TestOptionalPartsConcurrentFirstUse: goroutines racing to first use
// build each part once and all see the same one.
func TestOptionalPartsConcurrentFirstUse(t *testing.T) {
	w, err := worldgen.Build(42)
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	tlss := make([]*tlsprobe.Registry, n)
	alts := make([]map[string]*geodb.DB, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i%2 == 0 {
				tlss[i], alts[i] = w.TLS(), w.AltDBs()
			} else {
				alts[i], tlss[i] = w.AltDBs(), w.TLS()
			}
		}()
	}
	wg.Wait()
	if tlss[0] == nil || len(alts[0]) != 3 {
		t.Fatalf("TLS = %p, %d AltDBs; want a registry and 3 databases", tlss[0], len(alts[0]))
	}
	for i := 1; i < n; i++ {
		if tlss[i] != tlss[0] {
			t.Errorf("goroutine %d got TLS registry %p, goroutine 0 got %p", i, tlss[i], tlss[0])
		}
		for name, db := range alts[0] {
			if alts[i][name] != db {
				t.Errorf("goroutine %d got %s database %p, goroutine 0 got %p", i, name, alts[i][name], db)
			}
		}
	}
}
