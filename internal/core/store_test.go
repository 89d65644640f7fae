package core

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// sampleDataset is a complete recording by the fake drivers: two loaded
// pages with DNS records and traceroutes, a failed load and an opt-out.
func sampleDataset(t testing.TB) *Dataset {
	t.Helper()
	env, _, _ := testEnv()
	s, err := New(testConfig(), env)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// saveRoundTrip saves ds at path, loads it back and requires the loaded
// dataset to equal ds field for field.
func saveRoundTrip(t *testing.T, path string, ds *Dataset) {
	t.Helper()
	if err := SaveDataset(path, ds); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDataset(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ds) {
		t.Errorf("%s did not round-trip:\n got %+v\nwant %+v", path, got, ds)
	}
}

func TestSaveLoadDataset(t *testing.T) {
	ds := sampleDataset(t)
	path := filepath.Join(t.TempDir(), "data", "vol-test.json")
	saveRoundTrip(t, path, ds)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	compact, _ := json.Marshal(ds)
	if !bytes.Equal(raw, compact) {
		t.Error("SaveDataset must write compact JSON")
	}
	if _, err := LoadDataset(filepath.Join(t.TempDir(), "missing.json")); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("missing file: err = %v, want fs.ErrNotExist", err)
	}
}

func TestSaveLoadDatasetGzip(t *testing.T) {
	ds := sampleDataset(t)
	dir := t.TempDir()
	plain := filepath.Join(dir, "d.json")
	zipped := filepath.Join(dir, "d.json.gz")
	saveRoundTrip(t, plain, ds)
	saveRoundTrip(t, zipped, ds)
	pi, _ := os.Stat(plain)
	zi, _ := os.Stat(zipped)
	if zi.Size() >= pi.Size() {
		t.Errorf("gzip (%d) should be smaller than plain (%d)", zi.Size(), pi.Size())
	}
}

// writeGzip writes raw gzip-compressed to path and returns the file bytes.
func writeGzip(t *testing.T, path string, raw []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(raw)
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Files written before SaveDataset switched to compact JSON were
// indented; they must load to the same dataset.
func TestLoadDatasetLegacyIndented(t *testing.T) {
	ds := sampleDataset(t)
	dir := t.TempDir()
	compact := filepath.Join(dir, "compact.json")
	if err := SaveDataset(compact, ds); err != nil {
		t.Fatal(err)
	}
	want, err := LoadDataset(compact)
	if err != nil {
		t.Fatal(err)
	}
	indented, err := json.MarshalIndent(ds, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	plain := filepath.Join(dir, "legacy.json")
	if err := os.WriteFile(plain, indented, 0o644); err != nil {
		t.Fatal(err)
	}
	zipped := filepath.Join(dir, "legacy.json.gz")
	writeGzip(t, zipped, indented)
	for _, path := range []string{plain, zipped} {
		got, err := LoadDataset(path)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s loads differently from the compact file", path)
		}
	}
}

func TestLoadDatasetRejectsMalformed(t *testing.T) {
	ds := sampleDataset(t)
	compact, _ := json.Marshal(ds)
	bad := sampleDataset(t)
	bad.Pages[0].Traceroutes[0].Hops[0].RTTMs[0] = -5
	invalid, _ := json.Marshal(bad)
	dir := t.TempDir()
	zipped := writeGzip(t, filepath.Join(dir, "scratch.gz"), compact)

	cases := []struct {
		name, file string
		data       []byte
		want       string
	}{
		{"trailing garbage", "trailing.json", append(append([]byte{}, compact...), " {}"...), "decode"},
		{"trailing garbage after gzip member", "trailing.json.gz", append(append([]byte{}, zipped...), "junk"...), "decompress"},
		{"truncated gzip", "truncated.json.gz", zipped[:len(zipped)/2], "decompress"},
		{"not gzip", "plain.json.gz", compact, "decompress"},
		{"schema version", "schema.json", bytes.Replace(compact, []byte(`"schema_version":1`), []byte(`"schema_version":2`), 1), "schema version 2"},
		{"invalid dataset", "invalid.json", invalid, "page 0 (site-a.example)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, tc.file)
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := LoadDataset(path)
			if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one naming %s and %q", err, path, tc.want)
			}
		})
	}
}

func TestReadDatasetCaps(t *testing.T) {
	compact, _ := json.Marshal(sampleDataset(t))
	dir := t.TempDir()
	plain := filepath.Join(dir, "d.json")
	if err := os.WriteFile(plain, compact, 0o644); err != nil {
		t.Fatal(err)
	}
	zipped := filepath.Join(dir, "d.json.gz")
	zdata := writeGzip(t, zipped, compact)
	// The last four bytes of a gzip file give the decompressed size.
	lying := filepath.Join(dir, "lying.json.gz")
	forged := append([]byte{}, zdata...)
	copy(forged[len(forged)-4:], []byte{0xFF, 0xFF, 0xFF, 0xFF})
	if err := os.WriteFile(lying, forged, 0o644); err != nil {
		t.Fatal(err)
	}
	n, zn := int64(len(compact)), int64(len(zdata))

	cases := []struct {
		name             string
		path             string
		fileCap, jsonCap int64
		ok               bool
	}{
		{"plain at the cap", plain, n, n, true},
		{"plain over the cap", plain, n - 1, n, false},
		{"gzip at both caps", zipped, zn, n, true},
		{"gzip file over the cap", zipped, zn - 1, n, false},
		{"gzip stream over the cap", zipped, zn, n - 1, false},
		{"gzip size trailer near 4 GiB", lying, zn, n, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			raw, err := readDataset(tc.path, tc.fileCap, tc.jsonCap)
			if tc.ok {
				if err != nil || !bytes.Equal(raw, compact) {
					t.Fatalf("err = %v, %d bytes; want the %d JSON bytes", err, len(raw), n)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.path) {
				t.Fatalf("err = %v, want one naming %s", err, tc.path)
			}
		})
	}

	// A forged size trailer must not size the buffer beyond what DEFLATE
	// can expand the file to, far below the decompressed cap.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := LoadDataset(lying); err == nil {
		t.Fatal("a gzip file with a wrong size trailer must not load")
	}
	runtime.ReadMemStats(&after)
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); mb > 32 {
		t.Errorf("loading a %d-byte file with a forged size trailer allocated %.0f MB", zn, mb)
	}
}

func TestSaveDatasetFailureLeavesNoTmp(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.json")
	// A non-empty directory in the way makes the final rename fail.
	if err := os.MkdirAll(filepath.Join(path, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	err := SaveDataset(path, sampleDataset(t))
	if err == nil || !strings.HasPrefix(err.Error(), "core: ") || !strings.Contains(err.Error(), path) {
		t.Fatalf("err = %v, want a core: error naming %s", err, path)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("failed save left %s.tmp behind (stat err = %v)", path, err)
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(ds *Dataset)
		want   string // error substring; empty means valid
	}{
		{"complete recording", func(*Dataset) {}, ""},
		{"resume prefix", func(ds *Dataset) { ds.Pages = ds.Pages[:1] }, ""},
		{"no pages yet", func(ds *Dataset) { ds.Pages = nil }, ""},
		{"traceroutes disabled", func(ds *Dataset) {
			for i := range ds.Pages {
				ds.Pages[i].Traceroutes = nil
			}
		}, ""},
		{"anonymized", func(ds *Dataset) { ds.Anonymize() }, ""},
		{"schema version", func(ds *Dataset) { ds.SchemaVersion = 2 }, "schema version 2"},
		{"empty country", func(ds *Dataset) { ds.Country = "" }, `country ""`},
		{"lower-case country", func(ds *Dataset) { ds.Country = "pk" }, `country "pk"`},
		{"three-letter country", func(ds *Dataset) { ds.Country = "PAK" }, `country "PAK"`},
		{"empty city", func(ds *Dataset) { ds.City = "" }, "empty city"},
		{"duplicate target", func(ds *Dataset) { ds.Pages[1].Target.Domain = ds.Pages[0].Target.Domain },
			"page 1 (site-a.example): duplicate target"},
		{"negative hop RTT", func(ds *Dataset) { ds.Pages[0].Traceroutes[1].Hops[1].RTTMs[0] = -5 },
			"page 0 (site-a.example): traceroute 1 to 20.0.0.2: hop 2: negative RTT -5"},
		{"hop number below 1", func(ds *Dataset) { ds.Pages[0].Traceroutes[0].Hops[0].Hop = 0 },
			"page 0 (site-a.example): traceroute 0 to 20.0.0.1: hop number 0"},
		{"target not an IP", func(ds *Dataset) { ds.Pages[1].Traceroutes[0].Target = "site-b.example" },
			`page 1 (site-b.example): traceroute 0: target "site-b.example" is not an IP address`},
		{"target never resolved", func(ds *Dataset) { ds.Pages[0].Traceroutes[0].Target = "198.51.100.7" },
			"page 0 (site-a.example): traceroute 0: target 198.51.100.7 was not resolved on this page"},
		{"target resolved on another page", func(ds *Dataset) { ds.Pages[0].Traceroutes[0].Target = "20.0.0.3" },
			"page 0 (site-a.example): traceroute 0: target 20.0.0.3 was not resolved on this page"},
		{"failed lookup", func(ds *Dataset) {
			ds.Pages[1].DNS = append(ds.Pages[1].DNS, DNSRecord{Domain: "gone.example", Err: "NXDOMAIN"})
		}, ""},
		{"dns address not an IP", func(ds *Dataset) { ds.Pages[0].DNS[0].Addr = "site-a.example" },
			`page 0 (site-a.example): dns record 0 (site-a.example): address "site-a.example" is not an IP address`},
		{"dns record without address or error", func(ds *Dataset) {
			ds.Pages[1].DNS = append(ds.Pages[1].DNS, DNSRecord{Domain: "silent.example"})
		}, `page 1 (site-b.example): dns record 3 (silent.example): address "" is not an IP address`},
		{"negative ping RTT", func(ds *Dataset) {
			ds.Pages[0].Pings = []PingRecord{{Addr: "20.0.0.1", RTTMs: -1, OK: true}}
		}, "page 0 (site-a.example): ping 20.0.0.1: negative RTT -1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ds := sampleDataset(t)
			tc.mutate(ds)
			err := ds.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("valid dataset rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
		})
	}
}
