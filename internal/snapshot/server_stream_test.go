package snapshot

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"
)

// Streaming-path tests: the read handlers write through a
// flushwriter.Writer, so responses must flush progressively, stay flat
// in allocations on cache hits, stop early on client aborts, and still
// land correctly in the RED middleware's status and latency series.

// abortWriter is a ResponseWriter that accepts failAt bytes and then
// fails every write — a client that hung up mid-response.
type abortWriter struct {
	hdr     http.Header
	status  int
	n       int
	failAt  int
	flushes int
}

func newAbortWriter(failAt int) *abortWriter {
	return &abortWriter{hdr: http.Header{}, failAt: failAt}
}

func (a *abortWriter) Header() http.Header { return a.hdr }
func (a *abortWriter) WriteHeader(c int)   { a.status = c }
func (a *abortWriter) Flush()              { a.flushes++ }
func (a *abortWriter) Write(p []byte) (int, error) {
	if a.failAt > 0 && a.n+len(p) > a.failAt {
		return 0, errors.New("connection reset by peer")
	}
	a.n += len(p)
	return len(p), nil
}

// streamRig seeds a page with enough history that /history crosses the
// flush threshold several times.
func streamRig(t *testing.T, revs int) (*rig, *Server, string) {
	t.Helper()
	r := newRig(t)
	p := r.web.Site("h").Page("/p")
	for i := 0; i < revs; i++ {
		p.Set(fmt.Sprintf("<P>Revision %d body %s.</P>\n", i, strings.Repeat("pad ", 200)))
		if _, err := r.fac.Remember(context.Background(), userA, "http://h/p"); err != nil {
			t.Fatal(err)
		}
		r.web.Advance(time.Hour)
	}
	srv := NewServer(r.fac)
	srv.KeepaliveInterval = 0
	return r, srv, "http://h/p"
}

// TestStreamedResponseFlushesAndRecordsRED drives the streamed read
// routes through the full middleware stack with a flush-counting writer:
// the long /history must reach the client in more than one flush, and
// for every route the RED series must record the 2xx and the latency
// sample exactly as for a buffered response.
func TestStreamedResponseFlushesAndRecordsRED(t *testing.T) {
	r, srv, pageURL := streamRig(t, 40)
	h := srv.Handler()
	reg := r.fac.metrics()
	q := "?url=" + url.QueryEscape(pageURL) + "&user=" + url.QueryEscape(userA)

	for _, tc := range []struct{ endpoint, path string }{
		{"/history", "/history" + q},
		{"/diff", "/diff" + q + "&r1=1.1&r2=1.40"},
		{"/co", "/co" + q + "&rev=1.2"},
	} {
		before := reg.CounterVec("http.requests", "endpoint", "code").With(tc.endpoint, "2xx").Value()
		w := newAbortWriter(0) // never fails; counts flushes
		h.ServeHTTP(w, httptest.NewRequest("GET", tc.path, nil))

		if w.status != 0 && w.status != 200 {
			t.Fatalf("%s: status = %d", tc.endpoint, w.status)
		}
		if w.n == 0 {
			t.Fatalf("%s: no body written", tc.endpoint)
		}
		if tc.endpoint == "/history" && w.flushes == 0 {
			t.Errorf("long history (%d bytes) produced no mid-stream flush", w.n)
		}
		got := reg.CounterVec("http.requests", "endpoint", "code").With(tc.endpoint, "2xx").Value()
		if got != before+1 {
			t.Errorf("http.requests{%s,2xx} = %d, want %d", tc.endpoint, got, before+1)
		}
		hs, ok := reg.Snapshot().Histograms[`http.request.duration{endpoint="`+tc.endpoint+`"}`]
		if !ok || hs.Count == 0 {
			t.Errorf("latency histogram for %s missing (ok=%v, %+v)", tc.endpoint, ok, hs)
		}
	}
}

// TestClientAbortStopsStreamAndKeepsREDCorrect aborts the connection
// partway through a streamed response: the handler must stop writing
// (sticky error, no panic), and the middleware still accounts the
// exchange — the status was committed before the abort, so it records
// as a 2xx with a latency sample, distinguishable from a complete
// response only by its byte count.
func TestClientAbortStopsStreamAndKeepsREDCorrect(t *testing.T) {
	r, srv, pageURL := streamRig(t, 40)
	h := srv.Handler()
	reg := r.fac.metrics()

	// A full read first, to learn the complete size.
	full := newAbortWriter(0)
	req := httptest.NewRequest("GET", "/history?url="+url.QueryEscape(pageURL)+"&user="+url.QueryEscape(userA), nil)
	h.ServeHTTP(full, req)
	if full.n < 4096 {
		t.Fatalf("test page too small to abort meaningfully: %d bytes", full.n)
	}

	before := reg.CounterVec("http.requests", "endpoint", "code").With("/history", "2xx").Value()
	w := newAbortWriter(full.n / 4)
	h.ServeHTTP(w, httptest.NewRequest("GET", req.URL.String(), nil))

	if w.n > full.n/4 {
		t.Errorf("handler kept writing after the abort: %d of %d bytes", w.n, full.n)
	}
	got := reg.CounterVec("http.requests", "endpoint", "code").With("/history", "2xx").Value()
	if got != before+1 {
		t.Errorf("aborted request not recorded: %d, want %d", got, before+1)
	}
}

// TestErrorBeforeStreamingRecordsStatus: when the preparation half fails
// (nothing archived), the streaming handlers must surface the HTTP error
// before any body bytes, and RED must classify it 4xx.
func TestErrorBeforeStreamingRecordsStatus(t *testing.T) {
	r := newRig(t)
	srv := NewServer(r.fac)
	srv.KeepaliveInterval = 0
	h := srv.Handler()
	reg := r.fac.metrics()

	for _, path := range []string{
		"/history?url=http%3A%2F%2Fh%2Fnothing",
		"/co?url=http%3A%2F%2Fh%2Fnothing",
		"/diff?url=http%3A%2F%2Fh%2Fnothing&r1=1.1&r2=1.2",
	} {
		w := newAbortWriter(0)
		h.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		if w.status < 400 || w.status >= 500 {
			t.Errorf("%s: status = %d, want 4xx", path, w.status)
		}
	}
	if v := reg.CounterVec("http.requests", "endpoint", "code").With("/history", "4xx").Value(); v == 0 {
		t.Error("4xx not recorded for /history")
	}
}

// discardStringWriter gives io.WriteString a copy-free fast path, like
// the real ResponseWriter.
type discardStringWriter struct{ n int }

func (d *discardStringWriter) Write(p []byte) (int, error)       { d.n += len(p); return len(p), nil }
func (d *discardStringWriter) WriteString(s string) (int, error) { d.n += len(s); return len(s), nil }

// TestCachedDiffRenderFlatAllocations: streaming a cached rendering must
// cost a small constant number of allocations regardless of page size —
// the cached string is chunked straight to the writer, never
// re-materialised. A copy-per-chunk bug would show up as an allocation
// count scaling with the ~64 chunks of a 2 MB entry.
func TestCachedDiffRenderFlatAllocations(t *testing.T) {
	r := newRig(t)
	big := strings.Repeat("<P>cached diff body</P>\n", 1<<16) // ~1.5 MB
	key := dk("http://h/p", "1.1", "1.2")
	if stored, _ := r.fac.diffCache.put(key, big); !stored {
		t.Fatal("seed entry not stored")
	}
	ds, err := r.fac.DiffRevsStream("http://h/p", "1.1", "1.2")
	if err != nil || !ds.Cached {
		t.Fatalf("expected cache hit (err=%v)", err)
	}
	sink := &discardStringWriter{}
	allocs := testing.AllocsPerRun(20, func() {
		sink.n = 0
		if err := ds.Render(sink); err != nil {
			t.Fatal(err)
		}
	})
	if sink.n != len(big) {
		t.Fatalf("rendered %d bytes, want %d", sink.n, len(big))
	}
	if allocs > 16 {
		t.Errorf("cache-hit render costs %.0f allocs for %d bytes; want a small size-independent constant", allocs, len(big))
	}
}

// TestStreamedCheckoutDeliversWholePage sanity-checks /co end to end
// over a real connection: the streamed bytes must be byte-identical to
// the archived revision with the BASE directive injected.
func TestStreamedCheckoutDeliversWholePage(t *testing.T) {
	r, srv, pageURL := streamRig(t, 3)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	want, err := r.fac.Checkout(pageURL, "1.2")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/co?url=" + url.QueryEscape(pageURL) + "&rev=1.2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "<BASE HREF=") {
		t.Error("BASE directive missing from streamed checkout")
	}
	stripped := strings.Replace(string(body), "<BASE HREF=\""+pageURL+"\">", "", 1)
	if stripped != want {
		t.Errorf("streamed checkout differs from archive: %d vs %d bytes", len(stripped), len(want))
	}
}
