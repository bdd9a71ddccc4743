package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"time"
)

// requester turns operations into HTTP requests against snapshotd and
// checks every response against the corpus model.
type requester struct {
	base   string
	w      *workload
	c      *corpus
	org    *origin
	recent *recentList // tracker workload: pages the tracker fetched lately
	esc    []string    // query-escaped URLs

	clients []*http.Client
	bufs    []bytes.Buffer
	// handler, when set, answers requests in-process in place of the
	// sockets (the traced pass).
	handler http.Handler
	// writeMu serialises the driver's /remember calls per URL, as the
	// server's per-URL lock does, so the expected revision is known.
	writeMu []sync.Mutex

	mu       sync.Mutex
	writing  map[int]bool
	failures []string

	// sent holds the resolved arguments of the last operation, for the
	// single-goroutine traced pass to time the layers on the same inputs.
	sent struct{ u, a, b int }
}

// requestTimeout is the per-request limit; a request that exceeds it
// counts as failed.
const requestTimeout = 30 * time.Second

func newRequester(base string, w *workload, c *corpus, org *origin, workers int) *requester {
	r := &requester{base: base, w: w, c: c, org: org, writing: map[int]bool{}}
	for _, u := range c.urls {
		r.esc = append(r.esc, url.QueryEscape(u))
	}
	r.writeMu = make([]sync.Mutex, len(c.urls))
	r.bufs = make([]bytes.Buffer, workers)
	for i := 0; i < workers; i++ {
		// One keep-alive connection per worker and no more.
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
		r.clients = append(r.clients, &http.Client{
			Transport: tr,
			Timeout:   requestTimeout,
			// The TimeGate's 302 is the answer being measured.
			CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
		})
	}
	return r
}

func (r *requester) close() {
	for _, c := range r.clients {
		c.CloseIdleConnections()
	}
}

func (r *requester) fail(format string, args ...any) bool {
	r.mu.Lock()
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
	return false
}

// get sends one GET on the worker's connection and returns the response
// with its body read into the worker's buffer.
func (r *requester) get(worker int, path string, hdr ...string) (*http.Response, []byte, error) {
	req, err := http.NewRequest(http.MethodGet, r.base+path, nil)
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	if r.handler != nil {
		rec := httptest.NewRecorder()
		r.handler.ServeHTTP(rec, req)
		return rec.Result(), rec.Body.Bytes(), nil
	}
	resp, err := r.clients[worker].Do(req)
	if err != nil {
		return nil, nil, err
	}
	buf := &r.bufs[worker]
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp, buf.Bytes(), err
}

// revRange is the span of revision counts the server may legitimately
// hold for URL u right now. Reads race with writes the model has not
// recorded yet: a /remember in flight on another connection may have
// committed (+1), and on the tracker workload a page is noted when the
// origin serves it, a moment before the check-in commits (-1).
func (r *requester) revRange(u int) (lo, hi int) {
	n := r.c.revCount(u)
	lo, hi = n, n
	if r.w.sweep && lo > 1 {
		lo--
	}
	r.mu.Lock()
	if r.writing[u] {
		hi++
	}
	r.mu.Unlock()
	return lo, hi
}

// do performs one operation and checks its response.
func (r *requester) do(worker int, o *op) (ok, fresh bool) {
	u := o.url
	if r.w.sweep {
		u = r.recent.pick(o.url)
	}
	a, b := o.a, o.b
	if o.kind == opDiffLatest {
		b = r.c.revCount(u)
		a = b - 1
	}
	if r.handler != nil {
		r.sent.u, r.sent.a, r.sent.b = u, a, b
	}
	switch o.kind {
	case opCoHead, opCoRandom:
		return r.doCo(worker, u, a), false
	case opDiffLatest, opDiffRandom:
		return r.doDiff(worker, u, a, b), false
	case opHistory:
		return r.doCount(worker, u, "/history?user="+url.QueryEscape(r.c.user(u))+"&url="+r.esc[u], "<LI>"), false
	case opTimemap:
		return r.doCount(worker, u, "/timemap/link?url="+r.esc[u], ";datetime="), false
	case opTimegate:
		return r.doTimegate(worker, u, o.frac), false
	case opRememberNew:
		return r.doRemember(worker, u, true), true
	case opRememberSame:
		return r.doRemember(worker, u, false), false
	}
	return r.fail("unknown op kind %d", o.kind), false
}

// doCo fetches revision k (0 = head) and checks that it carries the
// marker of the version archived as that revision and is no shorter
// than the stored body (the server adds a BASE directive).
func (r *requester) doCo(worker, u, k int) bool {
	path := "/co?url=" + r.esc[u]
	lo, hi := k, k
	if k == 0 {
		lo, _ = r.revRange(u)
	} else {
		path += fmt.Sprintf("&rev=1.%d", k)
	}
	resp, body, err := r.get(worker, path)
	if err != nil {
		return r.fail("co %s: %v", r.c.urls[u], err)
	}
	if resp.StatusCode != http.StatusOK {
		return r.fail("co %s rev %d: HTTP %d", r.c.urls[u], k, resp.StatusCode)
	}
	if k == 0 {
		_, hi = r.revRange(u)
	}
	for rev := hi; rev >= lo; rev-- {
		// A revision past the model's count is a /remember still in
		// flight: it carries the version of the same number.
		ver, length := rev, 0
		if rev <= r.c.revCount(u) {
			ver, length, _ = r.c.rev(u, rev)
		}
		if len(body) >= length && bytes.Contains(body, []byte(marker(u, ver))) {
			return true
		}
	}
	return r.fail("co %s rev %d: body of %d bytes lacks the marker of revisions %d..%d", r.c.urls[u], k, len(body), lo, hi)
}

// doDiff renders revisions a against b and checks that the page is
// there and shows the newer revision's marker.
func (r *requester) doDiff(worker, u, a, b int) bool {
	if a < 1 {
		return r.fail("diff %s: only %d revisions archived", r.c.urls[u], b)
	}
	resp, body, err := r.get(worker, fmt.Sprintf("/diff?url=%s&r1=1.%d&r2=1.%d", r.esc[u], a, b))
	if err != nil {
		return r.fail("diff %s: %v", r.c.urls[u], err)
	}
	ver, _, _ := r.c.rev(u, b)
	if resp.StatusCode != http.StatusOK || len(body) == 0 || !bytes.Contains(body, []byte(marker(u, ver))) {
		return r.fail("diff %s 1.%d 1.%d: HTTP %d, %d bytes, marker %s missing", r.c.urls[u], a, b, resp.StatusCode, len(body), marker(u, ver))
	}
	return true
}

// doCount fetches a listing and checks that it has exactly one entry
// per archived revision.
func (r *requester) doCount(worker, u int, path, entry string) bool {
	lo, _ := r.revRange(u)
	resp, body, err := r.get(worker, path)
	if err != nil {
		return r.fail("%s: %v", path, err)
	}
	_, hi := r.revRange(u)
	n := bytes.Count(body, []byte(entry))
	if resp.StatusCode != http.StatusOK || n < lo || n > hi {
		return r.fail("%s: HTTP %d listing %d revisions, want %d..%d", path, resp.StatusCode, n, lo, hi)
	}
	return true
}

// doTimegate negotiates a datetime and checks the 302 itself: Location,
// Vary, and, where the archive's dates are the seeded ones, that the
// Location names the memento closest to the requested instant.
func (r *requester) doTimegate(worker, u int, frac float64) bool {
	seeded := r.c.spec.revs
	var adt time.Time
	if seeded > 0 {
		span := revDate(seeded).Sub(revDate(1))
		adt = revDate(1).Add(time.Duration(frac * float64(span))).Truncate(time.Second)
	} else {
		adt = time.Now().Add(-time.Duration(frac * float64(10*time.Second))).Truncate(time.Second)
	}
	resp, _, err := r.get(worker, "/timegate?url="+r.esc[u], "Accept-Datetime", adt.UTC().Format(http.TimeFormat))
	if err != nil {
		return r.fail("timegate %s: %v", r.c.urls[u], err)
	}
	loc := resp.Header.Get("Location")
	if resp.StatusCode != http.StatusFound || loc == "" || !strings.EqualFold(resp.Header.Get("Vary"), "accept-datetime") {
		return r.fail("timegate %s: HTTP %d, Location %q, Vary %q", r.c.urls[u], resp.StatusCode, loc, resp.Header.Get("Vary"))
	}
	if seeded > 0 {
		want := "/memento/" + revDate(nearestRev(adt, seeded)).Format("20060102150405") + "/"
		if !strings.Contains(loc, want) {
			return r.fail("timegate %s at %s: Location %q, want %s", r.c.urls[u], adt.Format(time.RFC3339), loc, want)
		}
	}
	return true
}

// nearestRev is the seeded revision closest to t, the earlier one on a
// tie (RFC 7089 leaves ties open; the archive documents earlier).
func nearestRev(t time.Time, revs int) int {
	best := 1
	for k := 2; k <= revs; k++ {
		if revDate(k).Sub(t).Abs() < revDate(best).Sub(t).Abs() {
			best = k
		}
	}
	return best
}

// doRemember asks snapshotd to fetch and check in URL u. With change
// set the driver first publishes the page's next version on the origin
// and the answer must name the next revision; otherwise the page is as
// archived and the answer must say so.
func (r *requester) doRemember(worker, u int, change bool) bool {
	r.writeMu[u].Lock()
	defer r.writeMu[u].Unlock()
	n := r.c.revCount(u)
	want := fmt.Sprintf("unchanged since revision 1.%d;", n)
	var body string
	if change {
		body = r.c.body(u, n+1)
		r.org.set(r.c.site(u), r.c.path(u), n+1, body, false)
		want = fmt.Sprintf("saved as revision 1.%d.", n+1)
		r.setWriting(u, true)
		defer r.setWriting(u, false)
	}
	resp, page, err := r.get(worker, "/remember?user="+url.QueryEscape(r.c.user(u))+"&url="+r.esc[u])
	if err != nil {
		return r.fail("remember %s: %v", r.c.urls[u], err)
	}
	if resp.StatusCode != http.StatusOK || !bytes.Contains(page, []byte(want)) {
		return r.fail("remember %s: HTTP %d %q, want %q", r.c.urls[u], resp.StatusCode, firstLine(page), want)
	}
	if change {
		r.c.noteArchived(u, n+1, body)
	}
	return true
}

func (r *requester) setWriting(u int, on bool) {
	r.mu.Lock()
	r.writing[u] = on
	r.mu.Unlock()
}

func firstLine(b []byte) string {
	s := string(b)
	if len(s) > 160 {
		s = s[:160]
	}
	return strings.TrimSpace(s)
}

// verifyDurable is the restart check: on a freshly restarted snapshotd,
// every revision the model holds for the given URLs must come back from
// /co with exactly the body that was acknowledged.
func (r *requester) verifyDurable(urls []int, fromRev int) (checked int, ok bool) {
	ok = true
	for _, u := range urls {
		for k := fromRev; k <= r.c.revCount(u); k++ {
			checked++
			_, length, hash := r.c.rev(u, k)
			resp, body, err := r.get(0, fmt.Sprintf("/co?url=%s&rev=1.%d", r.esc[u], k))
			if err != nil || resp.StatusCode != http.StatusOK {
				ok = r.fail("after restart: co %s 1.%d: %v", r.c.urls[u], k, err)
				continue
			}
			// Pages have no HEAD element, so the BASE directive the
			// server injects sits in front of the archived text.
			base := fmt.Sprintf("<BASE HREF=\"%s\">", r.c.urls[u])
			text := bytes.TrimPrefix(body, []byte(base))
			if len(text) != length || hashBody(string(text)) != hash {
				ok = r.fail("after restart: co %s 1.%d: %d bytes differ from the %d acknowledged", r.c.urls[u], k, len(text), length)
			}
		}
	}
	return checked, ok
}

// recentList is the tracker workload's read target: pages whose latest
// change the tracker has already fetched, oldest first.
type recentList struct {
	mu      sync.Mutex
	entries []recentEntry
}

type recentEntry struct {
	url int
	at  time.Time
}

// recentAge is how long after the fetch a page becomes a read target:
// long enough for the check-in behind the fetch to have committed.
const recentAge = 250 * time.Millisecond

// recentKeep bounds the list to the last few seconds of changes.
const recentKeep = 256

func (l *recentList) add(u int) {
	l.mu.Lock()
	l.entries = append(l.entries, recentEntry{u, time.Now()})
	if len(l.entries) > recentKeep {
		l.entries = l.entries[len(l.entries)-recentKeep:]
	}
	l.mu.Unlock()
}

// ready counts entries old enough to read.
func (l *recentList) ready() int {
	cut := time.Now().Add(-recentAge)
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, e := range l.entries {
		if e.at.Before(cut) {
			n++
		}
	}
	return n
}

// pick maps a seeded index onto the ready entries.
func (l *recentList) pick(i int) int {
	cut := time.Now().Add(-recentAge)
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for n < len(l.entries) && l.entries[n].at.Before(cut) {
		n++
	}
	if n == 0 {
		return l.entries[0].url
	}
	return l.entries[i%n].url
}
