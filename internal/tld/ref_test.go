package tld

import (
	"fmt"
	"strings"
	"testing"
)

// refPublicSuffix and refETLDPlusOne are the label-slice implementations
// the allocation-free PublicSuffix and ETLDPlusOne replaced, kept as the
// reference they must match on every input.
func refPublicSuffix(l *List, domain string) string {
	domain = normalize(domain)
	if domain == "" {
		return ""
	}
	labels := strings.Split(domain, ".")
	for i := 0; i < len(labels); i++ {
		suffix := strings.Join(labels[i:], ".")
		kind, ok := l.rules[suffix]
		if !ok {
			continue
		}
		switch kind {
		case ruleException:
			return strings.Join(labels[i+1:], ".")
		case ruleWildcard:
			if i > 0 {
				return strings.Join(labels[i-1:], ".")
			}
			return suffix
		default:
			return suffix
		}
	}
	return labels[len(labels)-1]
}

func refETLDPlusOne(l *List, domain string) (string, error) {
	domain = normalize(domain)
	if domain == "" {
		return "", fmt.Errorf("tld: empty domain")
	}
	suffix := refPublicSuffix(l, domain)
	if domain == suffix {
		return "", fmt.Errorf("tld: %q is a public suffix", domain)
	}
	rest := strings.TrimSuffix(domain, "."+suffix)
	labels := strings.Split(rest, ".")
	return labels[len(labels)-1] + "." + suffix, nil
}

// checkAgainstRef fails t if PublicSuffix or ETLDPlusOne differs from the
// reference on domain, error text included.
func checkAgainstRef(t *testing.T, l *List, domain string) {
	t.Helper()
	if got, want := l.PublicSuffix(domain), refPublicSuffix(l, domain); got != want {
		t.Errorf("PublicSuffix(%q) = %q, reference %q", domain, got, want)
	}
	got, err := l.ETLDPlusOne(domain)
	want, refErr := refETLDPlusOne(l, domain)
	if got != want || fmt.Sprint(err) != fmt.Sprint(refErr) {
		t.Errorf("ETLDPlusOne(%q) = %q, %v; reference %q, %v", domain, got, err, want, refErr)
	}
}

// refList has a rule of every kind at several depths, exceptions at the
// top level and under wildcards included.
const refList = "com\nco.uk\nuk\n*.ck\n!www.ck\n*.tokyo.jp\n!metro.tokyo.jp\njp\n!x\n*.y\n*.w.z\n!a.w.z\n"

// TestMatchesReference compares both lookups with the reference over
// every rule of the default list and of refList, each bare and under one
// and two labels, and over malformed shapes: empty labels, leading and
// trailing dots, case, spaces.
func TestMatchesReference(t *testing.T) {
	lists := []*List{Default(), Parse(refList)}
	for _, l := range lists {
		var domains []string
		for rule := range l.rules {
			domains = append(domains, rule, "a."+rule, "b.a."+rule, "www."+rule, "metro."+rule)
		}
		domains = append(domains,
			"", ".", "..", "a..b", ".com", "com.", "a.com..", "A.Co.UK", " x.com ",
			"x", "a.x", "y", "a.y", "b.a.y", "z", "w.z", "a.w.z", "b.a.w.z", "c.b.w.z",
			"unknowntld", "a.unknowntld", "a.b.unknowntld", "www.ck", "a.www.ck")
		for _, d := range domains {
			checkAgainstRef(t, l, d)
		}
	}
}

// FuzzETLDPlusOne is a differential of PublicSuffix and ETLDPlusOne
// against the reference, on the default list and on refList.
func FuzzETLDPlusOne(f *testing.F) {
	for _, s := range []string{"www.google.com", "news.bbc.co.uk", "a.b.example.ck", "www.ck", "a..b", "x.metro.tokyo.jp", "b.a.w.z", "WWW.Example.COM."} {
		f.Add(s)
	}
	lists := []*List{Default(), Parse(refList)}
	f.Fuzz(func(t *testing.T, domain string) {
		for _, l := range lists {
			checkAgainstRef(t, l, domain)
		}
	})
}
