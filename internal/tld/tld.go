// Package tld implements public-suffix-list semantics: effective TLD
// (public suffix) determination and registrable-domain (eTLD+1) extraction,
// as used in §4.2 of the paper to aggregate tracker hostnames, plus the
// government TLD registry used in §3.2 to compile T_gov (e.g., .gov.au is
// only registered by the Australian government; Argentina uses both gob.ar
// and gov.ar).
package tld

import (
	"fmt"
	"strings"
)

type ruleKind uint8

const (
	ruleNormal ruleKind = iota
	ruleWildcard
	ruleException
)

// List is a public suffix list. The zero value contains no rules; use
// Parse or Default. Lookup follows the publicsuffix.org algorithm:
// exception rules beat wildcard/normal rules, longer rules beat shorter
// ones, and an unmatched domain falls back to the rightmost-label rule.
type List struct {
	rules map[string]ruleKind
}

// Parse reads rules in public-suffix-list text format: one rule per line,
// "//" comments, "*." wildcard prefixes, and "!" exception prefixes.
func Parse(text string) *List {
	l := &List{rules: make(map[string]ruleKind)}
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "//") {
			continue
		}
		l.addRule(line)
	}
	return l
}

func (l *List) addRule(rule string) {
	rule = strings.ToLower(strings.TrimSuffix(rule, "."))
	switch {
	case strings.HasPrefix(rule, "!"):
		l.rules[rule[1:]] = ruleException
	case strings.HasPrefix(rule, "*."):
		l.rules[rule[2:]] = ruleWildcard
	default:
		l.rules[rule] = ruleNormal
	}
}

// normalize lowercases and strips any trailing dot.
func normalize(domain string) string {
	return strings.ToLower(strings.TrimSuffix(strings.TrimSpace(domain), "."))
}

// PublicSuffix returns the effective TLD of domain under the list.
func (l *List) PublicSuffix(domain string) string {
	domain = normalize(domain)
	if domain == "" {
		return ""
	}
	// Walk suffixes from longest to shortest so the longest matching rule
	// wins; handle exceptions and wildcards per the PSL algorithm. Each
	// candidate is the text after a dot, so no label slice is built and
	// the answer is a substring of domain.
	prev := -1 // start of the label left of the candidate, -1 at the first
	for start := 0; ; {
		suffix := domain[start:]
		dot := strings.IndexByte(suffix, '.')
		if kind, ok := l.rules[suffix]; ok {
			switch kind {
			case ruleException:
				// Public suffix is the exception rule minus its leftmost label.
				if dot < 0 {
					return ""
				}
				return suffix[dot+1:]
			case ruleWildcard:
				// Wildcard covers one label to the left of the rule.
				if prev >= 0 {
					return domain[prev:]
				}
				return suffix
			default:
				return suffix
			}
		}
		if dot < 0 {
			break
		}
		prev, start = start, start+dot+1
	}
	// Default rule "*": the rightmost label.
	return domain[strings.LastIndexByte(domain, '.')+1:]
}

// ETLDPlusOne returns the registrable domain: the public suffix plus the
// label to its left. It errors when the domain is itself a public suffix.
func (l *List) ETLDPlusOne(domain string) (string, error) {
	domain = normalize(domain)
	if domain == "" {
		return "", fmt.Errorf("tld: empty domain")
	}
	suffix := l.PublicSuffix(domain)
	if domain == suffix {
		return "", fmt.Errorf("tld: %q is a public suffix", domain)
	}
	// The answer is the label left of "."+suffix, plus "."+suffix: when
	// domain ends in "."+suffix, that is a tail of domain.
	if cut := len(domain) - len(suffix) - 1; cut >= 0 && domain[cut] == '.' && domain[cut+1:] == suffix {
		return domain[strings.LastIndexByte(domain[:cut], '.')+1:], nil
	}
	return domain[strings.LastIndexByte(domain, '.')+1:] + "." + suffix, nil
}

// RegistrableOrSelf is a tolerant variant of ETLDPlusOne used when
// aggregating observed hostnames: if the hostname is itself a public suffix
// or otherwise malformed, it is returned unchanged.
func (l *List) RegistrableOrSelf(domain string) string {
	if r, err := l.ETLDPlusOne(domain); err == nil {
		return r
	}
	return normalize(domain)
}

// IsSubdomainOf reports whether sub equals domain or is a DNS child of it.
func IsSubdomainOf(sub, domain string) bool {
	sub, domain = normalize(sub), normalize(domain)
	return sub == domain || strings.HasSuffix(sub, "."+domain)
}
