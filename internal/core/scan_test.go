package core_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	gamma "github.com/gamma-suite/gamma"
	"github.com/gamma-suite/gamma/internal/core"
)

// studies caches one study's datasets per seed for this package's tests.
var studies = map[uint64]map[string]*core.Dataset{}

func studyDatasets(tb testing.TB, seed uint64) map[string]*core.Dataset {
	tb.Helper()
	if ds, ok := studies[seed]; ok {
		return ds
	}
	s, err := gamma.RunStudy(context.Background(), seed)
	if err != nil {
		tb.Fatalf("RunStudy(%d): %v", seed, err)
	}
	studies[seed] = s.Datasets
	return s.Datasets
}

// sortedCountries returns the keys of datasets in order.
func sortedCountries(datasets map[string]*core.Dataset) []string {
	ccs := make([]string, 0, len(datasets))
	for cc := range datasets {
		ccs = append(ccs, cc)
	}
	slices.Sort(ccs)
	return ccs
}

// requireSame fails unless got and want are deep-equal and marshal to the
// same bytes; the second check tells apart floats that compare equal but
// differ in their bits, such as -0 and 0.
func requireSame(t *testing.T, name string, got, want *core.Dataset) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: decoded dataset differs from encoding/json's", name)
	}
	g, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	w, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g, w) {
		t.Fatalf("%s: decoded dataset re-encodes differently from encoding/json's", name)
	}
}

// requireOwned overwrites raw, the input got was decoded from, and
// requires got to still equal want: nothing decoded may alias the input.
func requireOwned(t *testing.T, name string, raw []byte, got, want *core.Dataset) {
	t.Helper()
	for i := range raw {
		raw[i] = 'x'
	}
	requireSame(t, name+" after its input was overwritten", got, want)
}

// TestScanDatasetStudies decodes every dataset of the seed-42 and 1729
// studies as SaveDataset writes it. Each must take the scanner and match
// encoding/json; each indented copy must fall back and match too.
func TestScanDatasetStudies(t *testing.T) {
	for _, seed := range []uint64{42, 1729} {
		datasets := studyDatasets(t, seed)
		for _, cc := range sortedCountries(datasets) {
			name := fmt.Sprintf("%s at seed %d", cc, seed)
			compact, err := json.Marshal(datasets[cc])
			if err != nil {
				t.Fatal(err)
			}
			want := new(core.Dataset)
			if err := json.Unmarshal(compact, want); err != nil {
				t.Fatal(err)
			}
			if err := want.Validate(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got, ok := core.ScanDataset(compact)
			if !ok {
				t.Fatalf("%s: the compact dataset did not take the scanner", name)
			}
			requireSame(t, name, got, want)
			requireOwned(t, name, compact, got, want)

			indented, err := json.MarshalIndent(datasets[cc], "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := core.ScanDataset(indented); ok {
				t.Fatalf("%s: the scanner accepted indented JSON", name)
			}
			legacy := new(core.Dataset)
			if err := json.Unmarshal(indented, legacy); err != nil {
				t.Fatal(err)
			}
			requireSame(t, name+" indented", legacy, want)
		}
	}
}

type nearMiss struct {
	name string
	data []byte
	// scanned is whether the input is inside the scanner's grammar.
	scanned bool
}

// nearMisses edits the compact sample dataset into inputs just outside
// (or, for an empty list and -0, just inside) the scanner's grammar.
func nearMisses(tb testing.TB) []nearMiss {
	tb.Helper()
	compact, err := json.Marshal(core.SampleDataset(tb))
	if err != nil {
		tb.Fatal(err)
	}
	withPings := core.SampleDataset(tb)
	withPings.Pages[0].Pings = []core.PingRecord{{Addr: "20.0.0.1", RTTMs: 12.5, OK: true}}
	pings, err := json.Marshal(withPings)
	if err != nil {
		tb.Fatal(err)
	}
	duration := `"duration_ms":` + durationOf(tb, compact)
	// head is the dataset up to its pages.
	head := compact[:bytes.Index(compact, []byte(`"pages":`))]
	edit := func(old, new string) []byte {
		if !bytes.Contains(compact, []byte(old)) {
			tb.Fatalf("sample dataset has no %s", old)
		}
		return bytes.Replace(compact, []byte(old), []byte(new), 1)
	}
	return []nearMiss{
		{"compact", compact, true},
		{"reordered keys", edit(`"country":"PK","city":"Karachi, PK"`, `"city":"Karachi, PK","country":"PK"`), false},
		{"duplicate key", edit(`"city":"Karachi, PK"`, `"city":"Lahore, PK","city":"Karachi, PK"`), false},
		{"case-folded key", edit(`"country":`, `"Country":`), false},
		{"unknown field", edit(`{"schema_version":1,`, `{"schema_version":1,"uploaded_by":"gamma",`), false},
		{"escaped ampersand", edit(`"url":"https://site-a.example/"`, `"url":"https://site-a.example/?a=1\u0026b=2"`), false},
		{"invalid UTF-8", edit(`"city":"Karachi`, "\"city\":\"Kar\xffachi"), false},
		{"empty pages", append(slices.Clone(head), `"pages":[]}`...), true},
		{"null pages", append(slices.Clone(head), `"pages":null}`...), false},
		{"float out of range", edit(duration, `"duration_ms":1e400`), false},
		{"negative zero", edit(duration, `"duration_ms":-0`), true},
		{"pings recorded", pings, false},
		{"leading BOM", append([]byte("\xef\xbb\xbf"), compact...), false},
		{"trailing object", append(slices.Clone(compact), "{}"...), false},
	}
}

// durationOf returns the first duration_ms literal in compact.
func durationOf(tb testing.TB, compact []byte) string {
	tb.Helper()
	_, rest, ok := bytes.Cut(compact, []byte(`"duration_ms":`))
	if !ok {
		tb.Fatal("sample dataset has no duration_ms")
	}
	end := bytes.IndexAny(rest, ",}")
	return string(rest[:end])
}

// decodeReference is LoadDataset's result by encoding/json alone.
func decodeReference(raw []byte) (*core.Dataset, error) {
	ds := new(core.Dataset)
	if err := json.Unmarshal(raw, ds); err != nil {
		return nil, err
	}
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	return ds, nil
}

// TestLoadDatasetNearMisses: inputs one edit away from SaveDataset's
// grammar load exactly as encoding/json decodes them, or fail with it.
func TestLoadDatasetNearMisses(t *testing.T) {
	dir := t.TempDir()
	for _, nm := range nearMisses(t) {
		t.Run(nm.name, func(t *testing.T) {
			if _, ok := core.ScanDataset(nm.data); ok != nm.scanned {
				t.Fatalf("scanner accepted = %v, want %v", ok, nm.scanned)
			}
			path := filepath.Join(dir, "upload.json")
			if err := os.WriteFile(path, nm.data, 0o644); err != nil {
				t.Fatal(err)
			}
			got, err := core.LoadDataset(path)
			want, wantErr := decodeReference(nm.data)
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("LoadDataset err = %v, encoding/json err = %v", err, wantErr)
			}
			if err == nil {
				requireSame(t, nm.name, got, want)
			}
		})
	}
}

// FuzzDecodeDataset is a differential: whenever the scanner accepts an
// input, encoding/json must decode it to the same dataset.
func FuzzDecodeDataset(f *testing.F) {
	// A seed-42 dataset cut to its first pages, as a resumed run leaves
	// it: a whole one (about 0.5 MB) slows every exec and minimization.
	datasets := studyDatasets(f, 42)
	prefix := *datasets[sortedCountries(datasets)[0]]
	prefix.Pages = prefix.Pages[:4]
	compact, err := json.Marshal(&prefix)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(compact)
	for _, nm := range nearMisses(f) {
		f.Add(nm.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		buf := bytes.Clone(data)
		got, ok := core.ScanDataset(buf)
		if !ok {
			return
		}
		want := new(core.Dataset)
		if err := json.Unmarshal(data, want); err != nil {
			t.Fatalf("scanner accepted what encoding/json refuses: %v", err)
		}
		requireSame(t, "fuzz input", got, want)
		requireOwned(t, "fuzz input", buf, got, want)
	})
}

// BenchmarkLoadDataset loads the seed-42 study's 23 datasets, saved as
// SaveDataset writes them for upload (.json.gz); one op loads all 23.
// The bytes per op are the decompressed JSON.
func BenchmarkLoadDataset(b *testing.B) {
	datasets := studyDatasets(b, 42)
	dir := b.TempDir()
	var paths []string
	var jsonBytes int64
	for _, cc := range sortedCountries(datasets) {
		path := filepath.Join(dir, cc+".json.gz")
		if err := core.SaveDataset(path, datasets[cc]); err != nil {
			b.Fatal(err)
		}
		raw, err := json.Marshal(datasets[cc])
		if err != nil {
			b.Fatal(err)
		}
		paths = append(paths, path)
		jsonBytes += int64(len(raw))
	}
	b.SetBytes(jsonBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for _, path := range paths {
			if _, err := core.LoadDataset(path); err != nil {
				b.Fatal(err)
			}
		}
	}
}
