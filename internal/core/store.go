package core

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
)

// Size caps on a dataset file, which arrives from a volunteer. The 23
// datasets of a whole study total about 13 MB as compact JSON.
const (
	// maxDatasetFileBytes caps the file on disk, compressed or plain.
	maxDatasetFileBytes = 64 << 20
	// maxDatasetJSONBytes caps a ".gz" file's decompressed JSON.
	maxDatasetJSONBytes = 256 << 20
	// maxDeflateRatio is the most DEFLATE can expand its input, so a
	// gzip trailer claiming more than that is a lie.
	maxDeflateRatio = 1032
)

// SaveDataset writes a dataset as compact JSON, creating parent
// directories as needed. A ".gz" suffix gzip-compresses the file —
// volunteers on slow uplinks upload the compressed form. The file is
// written under a ".tmp" name and renamed into place, so a reader never
// sees half a dataset.
func SaveDataset(path string, ds *Dataset) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("core: create dataset dir: %w", err)
	}
	raw, err := json.Marshal(ds)
	if err != nil {
		return fmt.Errorf("core: encode dataset: %w", err)
	}
	if strings.HasSuffix(path, ".gz") {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		if _, err := zw.Write(raw); err != nil {
			return fmt.Errorf("core: compress dataset: %w", err)
		}
		if err := zw.Close(); err != nil {
			return fmt.Errorf("core: compress dataset: %w", err)
		}
		raw = buf.Bytes()
	}
	tmp := path + ".tmp"
	err = os.WriteFile(tmp, raw, 0o644)
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		// The write or rename error is the one to report; removing the
		// partial file is best effort.
		_ = os.Remove(tmp)
		return fmt.Errorf("core: write dataset: %w", err)
	}
	return nil
}

// LoadDataset reads a dataset saved by SaveDataset, transparently
// decompressing ".gz" files, and validates it. Files in exactly the form
// SaveDataset writes are decoded by scanDataset; anything else, indented
// files written before SaveDataset switched to compact JSON included,
// goes through encoding/json, which yields the same dataset or the error.
func LoadDataset(path string) (*Dataset, error) {
	raw, err := readDataset(path, maxDatasetFileBytes, maxDatasetJSONBytes)
	if err != nil {
		return nil, err
	}
	ds, ok := scanDataset(raw)
	if !ok {
		ds = new(Dataset)
		if err := json.Unmarshal(raw, ds); err != nil {
			return nil, fmt.Errorf("core: decode dataset %s: %w", path, err)
		}
	}
	if err := ds.Validate(); err != nil {
		return nil, fmt.Errorf("core: dataset %s: %w", path, err)
	}
	return ds, nil
}

// readDataset returns the JSON held by the dataset file at path. It
// refuses a file larger than fileCap bytes and, for ".gz" files, JSON
// larger than jsonCap bytes once decompressed.
func readDataset(path string, fileCap, jsonCap int64) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: read dataset: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("core: read dataset: %w", err)
	}
	size := fi.Size()
	if size > fileCap {
		return nil, fmt.Errorf("core: dataset %s is %d bytes, over the %d-byte limit", path, size, fileCap)
	}
	if !strings.HasSuffix(path, ".gz") {
		raw, err := readCapped(f, size, fileCap)
		if err != nil {
			return nil, fmt.Errorf("core: read dataset %s: %w", path, err)
		}
		return raw, nil
	}
	// The gzip trailer's last four bytes (ISIZE) give the decompressed
	// size modulo 2^32. It only sizes the buffer: the stream itself is
	// what the cap is checked against.
	var hint int64
	var isize [4]byte
	if size >= int64(len(isize)) {
		if _, err := f.ReadAt(isize[:], size-int64(len(isize))); err == nil {
			hint = min(int64(binary.LittleEndian.Uint32(isize[:])), size*maxDeflateRatio)
		}
	}
	zr, err := gzip.NewReader(io.LimitReader(f, fileCap))
	if err != nil {
		return nil, fmt.Errorf("core: decompress dataset %s: %w", path, err)
	}
	raw, err := readCapped(zr, hint, jsonCap)
	if err != nil {
		return nil, fmt.Errorf("core: decompress dataset %s: %w", path, err)
	}
	return raw, nil
}

// readCapped reads r to EOF into a buffer pre-sized to sizeHint, failing
// once more than limit bytes arrive. Unlike io.ReadAll, a correct hint
// reads without regrowing the buffer.
func readCapped(r io.Reader, sizeHint, limit int64) ([]byte, error) {
	var buf bytes.Buffer
	// ReadFrom wants MinRead free bytes before every read, the one that
	// reports EOF included.
	buf.Grow(int(min(max(sizeHint, 0), limit)) + bytes.MinRead)
	if _, err := buf.ReadFrom(io.LimitReader(r, limit+1)); err != nil {
		return nil, err
	}
	if int64(buf.Len()) > limit {
		return nil, fmt.Errorf("over the %d-byte limit", limit)
	}
	return buf.Bytes(), nil
}

// Validate reports the first way ds departs from what a Gamma suite
// records: analysing such a dataset would not fail but silently skew the
// figures (a negative RTT, for instance, passes every speed-of-light
// constraint). It accepts partial recordings, as a resumable run leaves
// them, and recordings without traceroutes.
func (ds *Dataset) Validate() error {
	if ds.SchemaVersion != 1 {
		return fmt.Errorf("unsupported schema version %d", ds.SchemaVersion)
	}
	if !isCountryCode(ds.Country) {
		return fmt.Errorf("country %q is not a two-letter upper-case code", ds.Country)
	}
	if ds.City == "" {
		return fmt.Errorf("empty city")
	}
	seen := make(map[string]bool, len(ds.Pages))
	resolved := map[netip.Addr]bool{}
	for i := range ds.Pages {
		p := &ds.Pages[i]
		if seen[p.Target.Domain] {
			return fmt.Errorf("page %d (%s): duplicate target", i, p.Target.Domain)
		}
		seen[p.Target.Domain] = true
		clear(resolved)
		for k, rec := range p.DNS {
			addr, err := netip.ParseAddr(rec.Addr)
			if err == nil {
				resolved[addr] = true
			} else if rec.Err == "" {
				// Box 2 would drop this domain's flow without a word.
				return fmt.Errorf("page %d (%s): dns record %d (%s): address %q is not an IP address and no error is recorded", i, p.Target.Domain, k, rec.Domain, rec.Addr)
			}
		}
		for j, tr := range p.Traceroutes {
			addr, err := netip.ParseAddr(tr.Target)
			if err != nil {
				return fmt.Errorf("page %d (%s): traceroute %d: target %q is not an IP address", i, p.Target.Domain, j, tr.Target)
			}
			if !resolved[addr] {
				return fmt.Errorf("page %d (%s): traceroute %d: target %s was not resolved on this page", i, p.Target.Domain, j, tr.Target)
			}
			for _, h := range tr.Hops {
				if h.Hop < 1 {
					return fmt.Errorf("page %d (%s): traceroute %d to %s: hop number %d", i, p.Target.Domain, j, tr.Target, h.Hop)
				}
				for _, rtt := range h.RTTMs {
					if rtt < 0 {
						return fmt.Errorf("page %d (%s): traceroute %d to %s: hop %d: negative RTT %g ms", i, p.Target.Domain, j, tr.Target, h.Hop, rtt)
					}
				}
			}
		}
		for _, pg := range p.Pings {
			if pg.RTTMs < 0 {
				return fmt.Errorf("page %d (%s): ping %s: negative RTT %g ms", i, p.Target.Domain, pg.Addr, pg.RTTMs)
			}
		}
	}
	return nil
}

func isCountryCode(s string) bool {
	return len(s) == 2 && 'A' <= s[0] && s[0] <= 'Z' && 'A' <= s[1] && s[1] <= 'Z'
}
