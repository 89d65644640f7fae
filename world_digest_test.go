package gamma_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"hash"
	"runtime"
	"sort"
	"testing"

	gamma "github.com/gamma-suite/gamma"
)

// worldDigest hashes every part of a built world, the parts a study never
// reads included: each site's resources, each host and its lookups in
// every geolocation database, each host's TLS deployment, Tranco and the
// rankings. It returns one SHA-256 per part, so a mismatch names the part.
func worldDigest(t *testing.T, w *gamma.World) map[string]string {
	t.Helper()
	parts := map[string]hash.Hash{}
	write := func(part string, v any) {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		h, ok := parts[part]
		if !ok {
			h = sha256.New()
			parts[part] = h
		}
		h.Write(raw)
		h.Write([]byte{'\n'})
	}
	for _, s := range w.Web.Sites() {
		write("sites", s)
	}
	alt := w.AltDBs()
	altNames := make([]string, 0, len(alt))
	for name := range alt {
		altNames = append(altNames, name)
	}
	sort.Strings(altNames)
	tls := w.TLS()
	for _, h := range w.Net.Hosts() {
		write("hosts", h)
		city, ok := w.IPMap.Lookup(h.Addr)
		write("ipmap", []any{h.Addr, city, ok})
		for _, name := range altNames {
			city, ok := alt[name].Lookup(h.Addr)
			write("altdb/"+name, []any{h.Addr, city, ok})
		}
		d, ok := tls.Get(h.Addr)
		write("tls", []any{h.Addr, d, ok})
	}
	write("tranco", w.Tranco)
	write("rankings", w.Rankings)
	out := make(map[string]string, len(parts))
	for part, h := range parts {
		out[part] = hex.EncodeToString(h.Sum(nil))
	}
	return out
}

// pinnedWorldDigests were computed on linux/amd64 before the TLS
// deployments and the commercial databases were built on first use; they
// pin that moving a part's construction does not move its bytes.
var pinnedWorldDigests = map[string]map[string]string{
	"seed-42": {
		"altdb/dbip-sim":    "9f5e3c748c038ba038e72715caec390f4d0fb504e495e5adc3ef2efb14d904b1",
		"altdb/ipinfo-sim":  "b6c0147773fddb7790caf73eab0a48e1d2abe222beef25250db1ce747489a502",
		"altdb/maxmind-sim": "ac711c2e6e0c6320fcbbf3d559c756bc7196858ae1e35a7d81cd7c6bd85f848a",
		"hosts":             "f1a9f7a51fbaafe51997d846704e7634b1b0d793ce2022bc6c5373da29ceed71",
		"ipmap":             "50de69c7249a3ea997469a596fc6287dbafcb7d93381fcc4c4e68ff49617be5e",
		"rankings":          "98086466145b42be2c625712f0113094b3a4b23c59f9fb6657bc5e44313fad45",
		"sites":             "3a0fe6d7cd6ad19a8500be8e3c8f6e378a09fceecece5d1234123e410d363875",
		"tls":               "e181b845baabf66755c5de95dab5b7c0645bff468f163bb4dd4f31adbff22882",
		"tranco":            "d367b2c9f5a66d500a0bea4dbfbf1b29f302b30fe91c952bb3db6d7fb7ccfe0d",
	},
	"seed-1729": {
		"altdb/dbip-sim":    "b768d87eec0c6c0d2c45f4de9767225ea1ddd2f097c23bcdf69023b6e4abf443",
		"altdb/ipinfo-sim":  "3a84f91cf8f02fbdccb5bf55a88f1cc3dd46b7857a3d3a3b78e7338aa3cb0e86",
		"altdb/maxmind-sim": "c5e2fcd192f43369c6e09534915e27dc8c7e67971766c80b7e20aa775620238a",
		"hosts":             "8f51c5f650658070e9fe1a60e1556ebd1cd10f2e08fcee877f10237176797654",
		"ipmap":             "ee6185b8a05e9084d172b4cbde646ebb33066b032892524e8944caf431c85f95",
		"rankings":          "635eb643cc8d0306a9f99f96ece21c463302d70dde6c822a98059d2658bea923",
		"sites":             "a3618ce8a2075cd1df5481a93889970676346bbb910e9cd71b18c38fc9c6bb88",
		"tls":               "898ff7bc81354831bc4b294b3db03f9f7449294c1bbf73478959de918c45435f",
		"tranco":            "7b7562d5fc80fe03cff032c2c69d4cc10fc680cee8c875a3e0777396327a22fe",
	},
	"seed-42-localized-PK": {
		"altdb/dbip-sim":    "d8b35eeb6de15290b496e0062315115d2d93aea09eb38d151f662c17f9a2cd68",
		"altdb/ipinfo-sim":  "0a8cd50bf09178e63633a57dcf92c8c066707b0237dd3ec7b735991e6ef32ce0",
		"altdb/maxmind-sim": "76d009567f8f7787762b5e75bb24870f9a42dc1bfeba228b705d26c83a735642",
		"hosts":             "bdef6a8367e4ac25658197815c4db79b006dd7ec9c349e9df20bcbd700a6a39c",
		"ipmap":             "2e45a7421ba8d6b9a757dec084b270a0bc35d6988a59ffb089942a281079bcb3",
		"rankings":          "8d9325a2fddd21269b6e085449dc8a1ddb3f534de5a318d1d1254d4f3c4eb817",
		"sites":             "ed3c87e71d5a8dc93a195c73cf4ba9b6ed45bff50b0ad264339035502f9b7959",
		"tls":               "9fcc80a81552c335453c71e0436c8916f28ff329365f6fed5eaaac12e558a78d",
		"tranco":            "05bf082a10d86413b7b5c62b0520f1387722d45aa1c4f1b7db73082fc1a94933",
	},
}

// TestWorldDigestPinned compares the world at seeds 42 and 1729, and one
// localized world, part by part with committed digests.
func TestWorldDigestPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are pinned on amd64; on %s the compiler may fuse floating-point operations and change float bits", runtime.GOARCH)
	}
	worlds := []struct {
		name  string
		build func() (*gamma.World, error)
	}{
		{"seed-42", func() (*gamma.World, error) { return gamma.NewWorld(42) }},
		{"seed-1729", func() (*gamma.World, error) { return gamma.NewWorld(1729) }},
		{"seed-42-localized-PK", func() (*gamma.World, error) { return gamma.NewLocalizedWorld(42, "PK") }},
	}
	for _, tc := range worlds {
		w, err := tc.build()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got, want := worldDigest(t, w), pinnedWorldDigests[tc.name]
		if len(got) != len(want) {
			t.Errorf("%s: %d parts, want %d", tc.name, len(got), len(want))
		}
		parts := make([]string, 0, len(got))
		for part := range got {
			parts = append(parts, part)
		}
		sort.Strings(parts)
		for _, part := range parts {
			if got[part] != want[part] {
				t.Errorf("%s: %s digest %s, want %s", tc.name, part, got[part], want[part])
			}
		}
	}
}
