package tracert

// The study-wide differential in study_test.go runs in package
// tracert_test, which may import the root package; these give it the
// reference parsers.
var (
	ParseReference = parseRef
	SameNormalized = sameNormalized
)
