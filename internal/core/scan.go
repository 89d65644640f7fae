package core

import (
	"bytes"
	"strconv"
	"time"

	"github.com/gamma-suite/gamma/internal/tracert"
)

// scanDataset decodes raw without reflection when it is written in the
// grammar SaveDataset produces, and reports false for any other input.
// That grammar is compact JSON whose object keys appear in struct field
// order, each at most once and spelled exactly as the json tag, with
// strings free of escapes and of bytes outside printable ASCII, no null,
// and nothing after the closing brace. Fields absent from an object keep
// their zero value, as with json.Unmarshal; fields a default study never
// records, tls_scans and pings, are not part of the grammar.
//
// Whatever it accepts, it decodes exactly as json.Unmarshal into a zero
// Dataset would: numbers through strconv, started_at through
// time.Time.UnmarshalJSON, and an empty array to an empty, non-nil slice.
// Every string is copied out of raw, so the dataset never pins the read
// buffer. On false the caller decodes with encoding/json, which remains the
// definition of the format and the source of every decode error.
func scanDataset(raw []byte) (*Dataset, bool) {
	s := scanner{buf: raw}
	ds := new(Dataset)
	if !s.dataset(ds) || s.pos != len(raw) {
		return nil, false
	}
	return ds, true
}

// scanner walks one dataset's bytes. Each array is decoded into the
// scratch list of its element type, reused across arrays, and stored as
// an exactly-sized copy. Every method reports whether the input still
// follows the grammar; on false the scanner's state is meaningless.
type scanner struct {
	buf []byte
	pos int
	// strings holds recently decoded strings, indexed by their hash.
	strings [4096]string

	pages []PageResult
	reqs  []RequestRecord
	dns   []DNSRecord
	trs   []tracert.Normalized
	hops  []tracert.NormHop
	strs  []string
	rtts  []float64
}

// The json keys of each decoded struct, in field order.
var (
	datasetKeys = []string{"schema_version", "volunteer_id", "country", "city", "volunteer_ip", "anonymized", "started_at", "pages"}
	pageKeys    = []string{"target", "opted_out", "load", "dns", "traceroutes"}
	targetKeys  = []string{"domain", "kind"}
	loadKeys    = []string{"site", "url", "ok", "fail_reason", "duration_ms", "requests"}
	requestKeys = []string{"url", "domain", "type", "initiator", "blocked", "third_party", "set_cookies"}
	dnsKeys     = []string{"domain", "addr", "rdns", "cname_chain", "err"}
	traceKeys   = []string{"target", "reached", "hops"}
	hopKeys     = []string{"hop", "addr", "rtt_ms"}
)

func (s *scanner) dataset(ds *Dataset) bool {
	return s.object(datasetKeys, func(i int) bool {
		switch i {
		case 0:
			return s.int(&ds.SchemaVersion)
		case 1:
			return s.str(&ds.VolunteerID)
		case 2:
			return s.str(&ds.Country)
		case 3:
			return s.str(&ds.City)
		case 4:
			return s.str(&ds.VolunteerIP)
		case 5:
			return s.boolean(&ds.Anonymized)
		case 6:
			return s.timestamp(&ds.StartedAt)
		default:
			return list(s, &s.pages, &ds.Pages, s.page)
		}
	})
}

func (s *scanner) page(p *PageResult) bool {
	return s.object(pageKeys, func(i int) bool {
		switch i {
		case 0:
			return s.object(targetKeys, func(i int) bool {
				if i == 0 {
					return s.str(&p.Target.Domain)
				}
				return s.str((*string)(&p.Target.Kind))
			})
		case 1:
			return s.boolean(&p.OptedOut)
		case 2:
			return s.load(&p.Load)
		case 3:
			return list(s, &s.dns, &p.DNS, s.dnsRecord)
		default:
			return list(s, &s.trs, &p.Traceroutes, s.trace)
		}
	})
}

func (s *scanner) load(l *PageRecord) bool {
	return s.object(loadKeys, func(i int) bool {
		switch i {
		case 0:
			return s.str(&l.Site)
		case 1:
			return s.str(&l.URL)
		case 2:
			return s.boolean(&l.OK)
		case 3:
			return s.str(&l.FailReason)
		case 4:
			return s.float(&l.DurationMs)
		default:
			return list(s, &s.reqs, &l.Requests, s.request)
		}
	})
}

func (s *scanner) request(r *RequestRecord) bool {
	return s.object(requestKeys, func(i int) bool {
		switch i {
		case 0:
			return s.str(&r.URL)
		case 1:
			return s.str(&r.Domain)
		case 2:
			return s.str(&r.Type)
		case 3:
			return s.str(&r.Initiator)
		case 4:
			return s.boolean(&r.Blocked)
		case 5:
			return s.boolean(&r.ThirdParty)
		default:
			return list(s, &s.strs, &r.SetCookies, s.str)
		}
	})
}

func (s *scanner) dnsRecord(r *DNSRecord) bool {
	return s.object(dnsKeys, func(i int) bool {
		switch i {
		case 0:
			return s.str(&r.Domain)
		case 1:
			return s.str(&r.Addr)
		case 2:
			return s.str(&r.RDNS)
		case 3:
			return list(s, &s.strs, &r.CNAMEChain, s.str)
		default:
			return s.str(&r.Err)
		}
	})
}

func (s *scanner) trace(t *tracert.Normalized) bool {
	return s.object(traceKeys, func(i int) bool {
		switch i {
		case 0:
			return s.str(&t.Target)
		case 1:
			return s.boolean(&t.Reached)
		default:
			return list(s, &s.hops, &t.Hops, s.hop)
		}
	})
}

func (s *scanner) hop(h *tracert.NormHop) bool {
	return s.object(hopKeys, func(i int) bool {
		switch i {
		case 0:
			return s.int(&h.Hop)
		case 1:
			return s.str(&h.Addr)
		default:
			return list(s, &s.rtts, &h.RTTMs, s.float)
		}
	})
}

// object decodes an object whose keys are a subsequence of keys, in
// order; member decodes the value of keys[i]. A reordered, repeated,
// unknown or case-folded key is outside the grammar.
func (s *scanner) object(keys []string, member func(i int) bool) bool {
	if !s.lit('{') {
		return false
	}
	if s.lit('}') {
		return true
	}
	next := 0
	for {
		key, ok := s.rawString()
		if !ok {
			return false
		}
		i := next
		for i < len(keys) && keys[i] != string(key) {
			i++
		}
		if i == len(keys) || !s.lit(':') || !member(i) {
			return false
		}
		next = i + 1
		if !s.lit(',') {
			return s.lit('}')
		}
	}
}

// list decodes an array into *dst with elem, collecting the elements in
// scratch and storing an exactly-sized copy. As with encoding/json, an
// empty array gives an empty, non-nil slice.
func list[T any](s *scanner, scratch *[]T, dst *[]T, elem func(*T) bool) bool {
	if !s.lit('[') {
		return false
	}
	buf := (*scratch)[:0]
	if !s.lit(']') {
		for {
			var zero T
			buf = append(buf, zero)
			if !elem(&buf[len(buf)-1]) {
				return false
			}
			if !s.lit(',') {
				if !s.lit(']') {
					return false
				}
				break
			}
		}
	}
	*scratch = buf
	*dst = append(make([]T, 0, len(buf)), buf...)
	return true
}

// lit consumes the byte c if it comes next.
func (s *scanner) lit(c byte) bool {
	if s.pos < len(s.buf) && s.buf[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

// rawString consumes a string and returns its contents, which alias the
// input. Escapes, control bytes and bytes of 0x80 and above are outside
// the grammar.
func (s *scanner) rawString() ([]byte, bool) {
	if !s.lit('"') {
		return nil, false
	}
	start := s.pos
	for i := start; i < len(s.buf); i++ {
		switch c := s.buf[i]; {
		case c == '"':
			s.pos = i + 1
			return s.buf[start:i], true
		case c < 0x20 || c == '\\' || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

// str decodes a string. A dataset repeats few distinct strings (domains,
// hop addresses, request types), so recent ones are kept in a small
// direct-mapped table by hash and shared instead of copied again.
func (s *scanner) str(dst *string) bool {
	b, ok := s.rawString()
	if !ok {
		return false
	}
	h := uint32(2166136261)
	for _, c := range b {
		h = (h ^ uint32(c)) * 16777619
	}
	slot := &s.strings[h%uint32(len(s.strings))]
	if *slot != string(b) {
		*slot = string(b)
	}
	*dst = *slot
	return true
}

func (s *scanner) boolean(dst *bool) bool {
	rest := s.buf[s.pos:]
	switch {
	case bytes.HasPrefix(rest, []byte("true")):
		*dst = true
		s.pos += len("true")
	case bytes.HasPrefix(rest, []byte("false")):
		*dst = false
		s.pos += len("false")
	default:
		return false
	}
	return true
}

// number consumes a number in JSON's grammar, -?(0|[1-9][0-9]*)(.[0-9]+)?
// ([eE][+-]?[0-9]+)?, and reports whether it is an integer literal, with
// neither fraction nor exponent.
func (s *scanner) number() (num []byte, integer, ok bool) {
	start := s.pos
	s.lit('-')
	if s.lit('0') {
		// A leading zero stands alone.
	} else if !s.digits() {
		return nil, false, false
	}
	integer = true
	if s.lit('.') {
		integer = false
		if !s.digits() {
			return nil, false, false
		}
	}
	if s.lit('e') || s.lit('E') {
		integer = false
		if !s.lit('+') {
			s.lit('-')
		}
		if !s.digits() {
			return nil, false, false
		}
	}
	return s.buf[start:s.pos], integer, true
}

// digits consumes a run of decimal digits and reports whether there was
// at least one.
func (s *scanner) digits() bool {
	start := s.pos
	for s.pos < len(s.buf) && '0' <= s.buf[s.pos] && s.buf[s.pos] <= '9' {
		s.pos++
	}
	return s.pos > start
}

// int decodes an integer literal as encoding/json does for an int field;
// a literal it would refuse, such as 1.0 or one out of range, is outside
// the grammar.
func (s *scanner) int(dst *int) bool {
	num, integer, ok := s.number()
	if !ok || !integer {
		return false
	}
	n, err := strconv.ParseInt(string(num), 10, strconv.IntSize)
	*dst = int(n)
	return err == nil
}

// float decodes a number as encoding/json does for a float64 field; one
// out of float64's range is outside the grammar.
func (s *scanner) float(dst *float64) bool {
	num, _, ok := s.number()
	if !ok {
		return false
	}
	f, err := strconv.ParseFloat(string(num), 64)
	*dst = f
	return err == nil
}

// timestamp decodes a string through time.Time.UnmarshalJSON, which is what
// encoding/json calls with the same quoted bytes.
func (s *scanner) timestamp(dst *time.Time) bool {
	start := s.pos
	if _, ok := s.rawString(); !ok {
		return false
	}
	return dst.UnmarshalJSON(s.buf[start:s.pos]) == nil
}
