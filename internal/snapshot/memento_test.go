package snapshot

import (
	"context"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"aide/internal/httpdate"
	"aide/internal/memento"
)

// seedRevisions checks in one revision of pageURL per instant, so the
// archive's memento index is known exactly. Times must be ascending.
func seedRevisions(t *testing.T, r *rig, site, path string, times []time.Time, bodies []string) {
	t.Helper()
	pageURL := "http://" + site + path
	for i, at := range times {
		r.clock.Set(at)
		r.web.Site(site).Page(path).Set(bodies[i])
		if _, err := r.fac.Remember(context.Background(), userA, pageURL); err != nil {
			t.Fatalf("remember rev %d: %v", i+1, err)
		}
	}
}

func june(day, hour int) time.Time {
	return time.Date(1996, time.June, day, hour, 0, 0, 0, time.UTC)
}

func noFollow() *http.Client {
	return &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
}

func TestRevisionIndex(t *testing.T) {
	r := newRig(t)
	times := []time.Time{june(1, 12), june(2, 12), june(3, 12)}
	seedRevisions(t, r, "h", "/p", times, []string{"<html>v1</html>\n", "<html>v2</html>\n", "<html>v3</html>\n"})

	ms, err := r.fac.RevisionIndex("http://h/p")
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 3 {
		t.Fatalf("index length = %d, want 3", len(ms))
	}
	for i, m := range ms {
		if !m.Time.Equal(times[i]) {
			t.Errorf("memento %d time = %v, want %v", i, m.Time, times[i])
		}
	}
	if ms[0].Rev != "1.1" || ms[2].Rev != "1.3" {
		t.Errorf("revision order = %s..%s, want 1.1..1.3 (oldest first)", ms[0].Rev, ms[2].Rev)
	}

	if _, err := r.fac.RevisionIndex("http://h/never-saved"); err == nil {
		t.Error("RevisionIndex(unknown) succeeded, want error")
	}
}

// TestTimeGateCompliance exercises RFC 7089 pattern 1 against a real
// archive: 302 with Vary/Location/Link, and the Location target serves
// the negotiated revision with Memento-Datetime.
func TestTimeGateCompliance(t *testing.T) {
	r, ts := serverRig(t)
	times := []time.Time{june(1, 12), june(2, 12), june(3, 12)}
	seedRevisions(t, r, "h", "/p", times, []string{"<html>v1</html>\n", "<html>v2</html>\n", "<html>v3</html>\n"})

	req, _ := http.NewRequest("GET", ts.URL+"/timegate?url=http://h/p", nil)
	req.Header.Set("Accept-Datetime", httpdate.Format(june(2, 15)))
	resp, err := noFollow().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusFound {
		t.Fatalf("TimeGate status = %d, want 302", resp.StatusCode)
	}
	if v := resp.Header.Get("Vary"); !strings.EqualFold(v, "accept-datetime") {
		t.Errorf("Vary = %q", v)
	}
	loc := resp.Header.Get("Location")
	if !strings.Contains(loc, "/memento/"+memento.FormatTimestamp(june(2, 12))+"/http://h/p") {
		t.Errorf("Location = %q, want June 2 memento", loc)
	}
	link := resp.Header.Get("Link")
	for _, want := range []string{`rel="original"`, `rel="timemap"`, `rel="first memento"`, `rel="last memento"`} {
		if !strings.Contains(link, want) {
			t.Errorf("TimeGate Link missing %s: %q", want, link)
		}
	}

	// Follow the negotiated location: the memento itself.
	resp2, err := http.Get(loc)
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp2)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("memento status = %d", resp2.StatusCode)
	}
	if got, want := resp2.Header.Get("Memento-Datetime"), httpdate.Format(june(2, 12)); got != want {
		t.Errorf("Memento-Datetime = %q, want %q", got, want)
	}
	if !strings.Contains(body, "v2") {
		t.Errorf("memento body is not revision 2:\n%s", body)
	}
	if !strings.Contains(body, `<BASE HREF="http://h/p">`) {
		t.Errorf("memento body lacks BASE directive:\n%s", body)
	}
	l2 := resp2.Header.Get("Link")
	for _, want := range []string{`rel="original"`, `rel="timegate"`, `rel="timemap"`, `rel="prev memento"`, `rel="next memento"`, `rel="memento"`} {
		if !strings.Contains(l2, want) {
			t.Errorf("memento Link missing %s: %q", want, l2)
		}
	}

	// Without Accept-Datetime the gate sends the current memento.
	resp3, err := noFollow().Get(ts.URL + "/timegate?url=http://h/p")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if loc := resp3.Header.Get("Location"); !strings.Contains(loc, memento.FormatTimestamp(june(3, 12))) {
		t.Errorf("no-header Location = %q, want latest memento", loc)
	}
}

func TestTimeMapCompliance(t *testing.T) {
	r, ts := serverRig(t)
	times := []time.Time{june(1, 12), june(2, 12), june(3, 12)}
	seedRevisions(t, r, "h", "/p", times, []string{"<html>v1</html>\n", "<html>v2</html>\n", "<html>v3</html>\n"})

	resp, err := http.Get(ts.URL + "/timemap/link?url=http://h/p")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("TimeMap status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != memento.ContentType {
		t.Errorf("Content-Type = %q", ct)
	}
	for _, want := range []string{
		"<http://h/p>;rel=\"original\"",
		"rel=\"timegate\"",
		"rel=\"self\"",
		"rel=\"first memento\";datetime=\"" + httpdate.Format(june(1, 12)) + "\"",
		"rel=\"memento\";datetime=\"" + httpdate.Format(june(2, 12)) + "\"",
		"rel=\"last memento\";datetime=\"" + httpdate.Format(june(3, 12)) + "\"",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("TimeMap missing %s:\n%s", want, body)
		}
	}
}

func TestMementoDiffEndpoint(t *testing.T) {
	r, ts := serverRig(t)
	times := []time.Time{june(1, 12), june(2, 12), june(3, 12)}
	seedRevisions(t, r, "h", "/p", times, []string{
		"<html>alpha one</html>\n", "<html>alpha two</html>\n", "<html>alpha three</html>\n"})

	// Datetime-addressed diff: from clamps to rev 1, to negotiates to
	// rev 3 (default: latest).
	resp, err := http.Get(ts.URL + "/memento/diff?url=http://h/p&from=1996")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("diff status = %d\n%s", resp.StatusCode, body)
	}
	if got, want := resp.Header.Get("Memento-Datetime"), httpdate.Format(june(3, 12)); got != want {
		t.Errorf("diff Memento-Datetime = %q, want %q", got, want)
	}
	if n := strings.Count(resp.Header.Get("Link"), `rel="memento"`); n != 2 {
		t.Errorf("diff Link memento count = %d, want 2: %q", n, resp.Header.Get("Link"))
	}
	if !strings.Contains(body, "three") {
		t.Errorf("diff body lacks new text:\n%s", body)
	}
}

// TestCheckoutAndDiffCarryMementoHeaders checks the facility's native
// endpoints stamp the RFC 7089 headers on responses built from
// archived states.
func TestCheckoutAndDiffCarryMementoHeaders(t *testing.T) {
	r, ts := serverRig(t)
	times := []time.Time{june(1, 12), june(2, 12), june(3, 12)}
	seedRevisions(t, r, "h", "/p", times, []string{"<html>v1</html>\n", "<html>v2</html>\n", "<html>v3</html>\n"})

	// Explicit revision.
	resp, err := http.Get(ts.URL + "/co?url=http://h/p&rev=1.2")
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	if got, want := resp.Header.Get("Memento-Datetime"), httpdate.Format(june(2, 12)); got != want {
		t.Errorf("/co Memento-Datetime = %q, want %q", got, want)
	}
	link := resp.Header.Get("Link")
	for _, want := range []string{`rel="original"`, `rel="timegate"`, `rel="prev memento"`, `rel="next memento"`} {
		if !strings.Contains(link, want) {
			t.Errorf("/co Link missing %s: %q", want, link)
		}
	}

	// Head checkout (no rev parameter) resolves to the newest memento.
	resp, err = http.Get(ts.URL + "/co?url=http://h/p")
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	if got, want := resp.Header.Get("Memento-Datetime"), httpdate.Format(june(3, 12)); got != want {
		t.Errorf("head /co Memento-Datetime = %q, want %q", got, want)
	}

	// Archived-pair diff.
	resp, err = http.Get(ts.URL + "/diff?url=http://h/p&r1=1.1&r2=1.3&user=" + userA)
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	if got, want := resp.Header.Get("Memento-Datetime"), httpdate.Format(june(3, 12)); got != want {
		t.Errorf("/diff Memento-Datetime = %q, want %q", got, want)
	}

	// rcsdiff too.
	resp, err = http.Get(ts.URL + "/rcsdiff?url=http://h/p&r1=1.1&r2=1.2")
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	if got, want := resp.Header.Get("Memento-Datetime"), httpdate.Format(june(2, 12)); got != want {
		t.Errorf("/rcsdiff Memento-Datetime = %q, want %q", got, want)
	}

	// Live-vs-saved diff derives from the live page, not a memento pair:
	// no Memento-Datetime.
	resp, err = http.Get(ts.URL + "/diff?url=http://h/p&user=" + userA)
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	if got := resp.Header.Get("Memento-Datetime"); got != "" {
		t.Errorf("live /diff Memento-Datetime = %q, want none", got)
	}
}

// TestMementoMetricsLabels checks the RED middleware sees the memento
// routes as their bounded mux patterns — never raw URLs — and counts
// TimeGate redirects in the 3xx class.
func TestMementoMetricsLabels(t *testing.T) {
	r, ts := serverRig(t)
	seedRevisions(t, r, "h", "/p", []time.Time{june(1, 12), june(2, 12)}, []string{"<html>v1</html>\n", "<html>v2</html>\n"})

	for _, u := range []string{
		"/timegate?url=http://h/p",
		"/timemap/link?url=http://h/p",
		// Pre-cleaned path form (as arrives after the mux's 301): the
		// request that actually serves the memento body.
		"/memento/" + memento.FormatTimestamp(june(1, 12)) + "/http:/h/p",
		"/memento/diff?url=http://h/p&from=1996",
	} {
		resp, err := noFollow().Get(ts.URL + u)
		if err != nil {
			t.Fatal(err)
		}
		readAll(t, resp)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	out := readAll(t, resp)
	for _, want := range []string{
		`http_requests_total{endpoint="/timegate",code="3xx"} `,
		`http_requests_total{endpoint="/timemap/link",code="2xx"} `,
		`http_requests_total{endpoint="/memento/",code="2xx"} `,
		`http_requests_total{endpoint="/memento/diff",code="2xx"} `,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// Every route in the mix also fills its latency histogram.
	for _, ep := range []string{"/timegate", "/timemap/link", "/memento/", "/memento/diff"} {
		if n := durationCount(out, ep); n <= 0 {
			t.Errorf("http_request_duration_count{endpoint=%q} = %d, want > 0", ep, n)
		}
	}
	// Cardinality discipline: no endpoint label carries a raw target URL
	// or timestamp.
	for _, line := range strings.Split(out, "\n") {
		if !strings.Contains(line, `endpoint="`) {
			continue
		}
		if strings.Contains(line, "http://h/p") || strings.Contains(line, "19960") {
			t.Errorf("unbounded endpoint label: %s", line)
		}
	}
}

// TestTimeGatePathFormAgainstServer drives the path-embedded target
// form end to end: the ServeMux 301 path-clean, the TimeGate 302, and
// the memento response.
func TestTimeGatePathFormAgainstServer(t *testing.T) {
	r, ts := serverRig(t)
	seedRevisions(t, r, "h", "/p", []time.Time{june(1, 12), june(2, 12)}, []string{"<html>v1</html>\n", "<html>v2</html>\n"})

	req, _ := http.NewRequest("GET", ts.URL+"/timegate/http://h/p", nil)
	req.Header.Set("Accept-Datetime", httpdate.Format(june(1, 12)))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d\n%s", resp.StatusCode, body)
	}
	if !strings.Contains(body, "v1") {
		t.Errorf("negotiated body is not revision 1:\n%s", body)
	}
}

// durationCount returns the sample count of endpoint's latency histogram
// in a Prometheus text scrape, or -1 when the series is absent.
func durationCount(scrape, endpoint string) int64 {
	prefix := `http_request_duration_count{endpoint="` + endpoint + `"} `
	for _, line := range strings.Split(scrape, "\n") {
		if v, ok := strings.CutPrefix(line, prefix); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return -1
			}
			return n
		}
	}
	return -1
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
