// Package httpdate parses and formats HTTP-dates (RFC 9110 §5.6.7,
// formerly RFC 7231 §7.1.1.1): the preferred IMF-fixdate (RFC 1123),
// plus the two obsolete forms every server must still accept — RFC 850
// and ANSI C asctime(). It exists so that every header carrying a date
// (If-Modified-Since, Last-Modified, Retry-After, Accept-Datetime,
// Memento-Datetime) goes through one parser instead of scattered
// http.ParseTime/time.Parse calls with differing leniency.
//
// Beyond the three canonical forms, Parse is deliberately liberal in
// what it accepts from the wild: numeric zone offsets on RFC 1123
// dates, single-digit days, "UTC" and lowercase zone names, and — as a
// convenience for machine-generated values from scripts and load
// generators — RFC 3339. Format always emits the canonical IMF-fixdate
// in GMT, the only form a conforming server may generate.
package httpdate

import (
	"errors"
	"strings"
	"time"
)

// ErrBadDate is wrapped by every Parse failure, so call sites can
// errors.Is against one sentinel regardless of which format almost
// matched.
var ErrBadDate = errors.New("httpdate: unparseable HTTP-date")

// layouts are tried in order of likelihood on real traffic. The
// RFC 1123 family leads (the only form modern software emits), the
// obsolete RFC 850 and asctime forms follow, and the lenient tail
// accepts common malformations and RFC 3339.
var layouts = []string{
	time.RFC1123,                     // Sun, 06 Nov 1994 08:49:37 GMT
	time.RFC1123Z,                    // Sun, 06 Nov 1994 08:49:37 +0000
	time.RFC850,                      // Sunday, 06-Nov-94 08:49:37 GMT
	time.ANSIC,                       // Sun Nov  6 08:49:37 1994
	"Mon, 2 Jan 2006 15:04:05 MST",   // single-digit day RFC 1123
	"Mon, 2 Jan 2006 15:04:05 -0700", // single-digit day RFC 1123Z
	"Mon, 02-Jan-2006 15:04:05 MST",  // RFC 850 with four-digit year
	"2 Jan 2006 15:04:05 MST",        // weekday dropped entirely
	"02 Jan 2006 15:04:05 -0700",
	time.RFC3339, // 1994-11-06T08:49:37Z (machine-generated values)
}

// Parse interprets s as an HTTP-date. The returned time is always in
// UTC: an HTTP-date names an instant, and callers compare instants.
// Parse never accepts the empty string.
func Parse(s string) (time.Time, error) {
	v := strings.TrimSpace(s)
	if v == "" {
		return time.Time{}, ErrBadDate
	}
	for _, layout := range layouts {
		if t, err := time.Parse(layout, v); err == nil {
			return t.UTC(), nil
		}
	}
	// Zone-name case (gmt, Utc) and "UTC" where GMT is expected defeat
	// time.Parse's abbreviation matching; normalise the trailing word
	// and retry the name-zoned layouts once.
	if fixed, changed := normalizeZone(v); changed {
		for _, layout := range layouts {
			if t, err := time.Parse(layout, fixed); err == nil {
				return t.UTC(), nil
			}
		}
	}
	return time.Time{}, ErrBadDate
}

// normalizeZone upper-cases a trailing alphabetic zone word and maps
// UT/UTC to GMT (RFC 9110 treats the obsolete UT as GMT; UTC shows up
// in the wild). Reports whether anything changed.
func normalizeZone(s string) (string, bool) {
	i := strings.LastIndexByte(s, ' ')
	if i < 0 || i+1 >= len(s) {
		return s, false
	}
	zone := s[i+1:]
	for j := 0; j < len(zone); j++ {
		c := zone[j]
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z') {
			return s, false
		}
	}
	up := strings.ToUpper(zone)
	if up == "UT" || up == "UTC" {
		up = "GMT"
	}
	if up == zone {
		return s, false
	}
	return s[:i+1] + up, true
}

// TimeFormat is the canonical IMF-fixdate layout (identical to
// net/http's TimeFormat, restated here so the package stays free of an
// HTTP dependency).
const TimeFormat = "Mon, 02 Jan 2006 15:04:05 GMT"

// Format renders t as the canonical IMF-fixdate ("Sun, 06 Nov 1994
// 08:49:37 GMT") — the only HTTP-date form a server should emit.
func Format(t time.Time) string {
	return t.UTC().Format(TimeFormat)
}
