package snapshot

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"
)

// serverRig wires a facility + HTTP server to the synthetic web.
func serverRig(t *testing.T) (*rig, *httptest.Server) {
	t.Helper()
	r := newRig(t)
	srv := NewServer(r.fac)
	srv.KeepaliveInterval = 0 // no trickle in fast tests
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return r, ts
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestIndexForm(t *testing.T) {
	_, ts := serverRig(t)
	code, body := get(t, ts.URL+"/")
	if code != 200 || !strings.Contains(body, "<FORM ACTION=\"/remember\"") {
		t.Errorf("index: code=%d body:\n%s", code, body)
	}
	code, _ = get(t, ts.URL+"/nonexistent")
	if code != 404 {
		t.Errorf("unknown path code = %d", code)
	}
}

func TestRememberDiffHistoryFlow(t *testing.T) {
	r, ts := serverRig(t)
	p := r.web.Site("h").Page("/p")
	p.Set("<P>Version one sentence stays put.</P>\n")
	q := "url=" + url.QueryEscape("http://h/p") + "&user=" + url.QueryEscape(userA)

	// Remember.
	code, body := get(t, ts.URL+"/remember?"+q)
	if code != 200 || !strings.Contains(body, "saved as revision 1.1") {
		t.Fatalf("remember: %d\n%s", code, body)
	}
	// Remember again, unchanged.
	_, body = get(t, ts.URL+"/remember?"+q)
	if !strings.Contains(body, "unchanged since revision 1.1") {
		t.Fatalf("second remember:\n%s", body)
	}

	// The page changes; Diff shows the live difference.
	r.web.Advance(time.Hour)
	p.Set("<P>Version one sentence stays put. Appended material shows up.</P>\n")
	code, body = get(t, ts.URL+"/diff?"+q)
	if code != 200 || !strings.Contains(body, "<STRONG><I>Appended") {
		t.Fatalf("diff: %d\n%s", code, body)
	}

	// Remember the new version, then History lists both with links.
	get(t, ts.URL+"/remember?"+q)
	code, body = get(t, ts.URL+"/history?"+q)
	if code != 200 {
		t.Fatalf("history code = %d", code)
	}
	for _, want := range []string{"1.1", "1.2", "(seen by you)", "/co?url=", "diff to 1.1"} {
		if !strings.Contains(body, want) {
			t.Errorf("history missing %q:\n%s", want, body)
		}
	}
}

func TestDiffWithoutSaveReturns404(t *testing.T) {
	r, ts := serverRig(t)
	r.web.Site("h").Page("/p").Set("x\n")
	code, _ := get(t, ts.URL+"/diff?url="+url.QueryEscape("http://h/p")+"&user=u")
	if code != 404 {
		t.Errorf("diff without save: code = %d, want 404", code)
	}
}

func TestMissingParams(t *testing.T) {
	_, ts := serverRig(t)
	for _, path := range []string{"/remember", "/diff", "/history", "/co", "/rlog"} {
		code, _ := get(t, ts.URL+path)
		if code != 400 {
			t.Errorf("%s without url: code = %d, want 400", path, code)
		}
	}
	code, _ := get(t, ts.URL+"/rcsdiff?url=x") // missing r1/r2
	if code != 400 {
		t.Errorf("rcsdiff missing revs: code = %d", code)
	}
}

func TestCheckoutWithBaseInjection(t *testing.T) {
	r, ts := serverRig(t)
	r.web.Site("h").Page("/dir/p").Set("<HTML><HEAD><TITLE>T</TITLE></HEAD><BODY><A HREF=\"rel.html\">rel</A></BODY></HTML>\n")
	r.fac.Remember(context.Background(), userA, "http://h/dir/p")
	code, body := get(t, ts.URL+"/co?url="+url.QueryEscape("http://h/dir/p")+"&rev=1.1")
	if code != 200 {
		t.Fatalf("co code = %d", code)
	}
	if !strings.Contains(body, `<HEAD><BASE HREF="http://h/dir/p">`) {
		t.Errorf("BASE not injected after HEAD:\n%s", body)
	}
}

func TestCheckoutAtDateParam(t *testing.T) {
	r, ts := serverRig(t)
	p := r.web.Site("h").Page("/p")
	p.Set("v1\n")
	r.fac.Remember(context.Background(), userA, "http://h/p")
	mid := r.clock.Now().Add(time.Hour)
	r.web.Advance(2 * time.Hour)
	p.Set("v2\n")
	r.fac.Remember(context.Background(), userA, "http://h/p")

	code, body := get(t, ts.URL+"/co?url="+url.QueryEscape("http://h/p")+
		"&date="+url.QueryEscape(mid.Format(time.RFC3339)))
	if code != 200 || !strings.Contains(body, "v1") {
		t.Errorf("date checkout: %d %q", code, body)
	}
	code, _ = get(t, ts.URL+"/co?url="+url.QueryEscape("http://h/p")+"&date=NOTADATE")
	if code != 400 {
		t.Errorf("bad date code = %d", code)
	}
}

func TestRlogAndRcsdiff(t *testing.T) {
	r, ts := serverRig(t)
	p := r.web.Site("h").Page("/p")
	p.Set("<P>alpha beta gamma delta.</P>\n")
	r.fac.Remember(context.Background(), userA, "http://h/p")
	r.web.Advance(time.Hour)
	p.Set("<P>alpha beta gamma epsilon.</P>\n")
	r.fac.Remember(context.Background(), userA, "http://h/p")

	code, body := get(t, ts.URL+"/rlog?url="+url.QueryEscape("http://h/p"))
	if code != 200 || !strings.Contains(body, "revision 1.2") || !strings.Contains(body, "revision 1.1") {
		t.Errorf("rlog: %d\n%s", code, body)
	}

	// HtmlDiff mode (default).
	code, body = get(t, ts.URL+"/rcsdiff?url="+url.QueryEscape("http://h/p")+"&r1=1.1&r2=1.2")
	if code != 200 || !strings.Contains(body, "<STRIKE>delta.</STRIKE>") {
		t.Errorf("rcsdiff html: %d\n%s", code, body)
	}
	// Text mode.
	code, body = get(t, ts.URL+"/rcsdiff?url="+url.QueryEscape("http://h/p")+"&r1=1.1&r2=1.2&mode=text")
	if code != 200 || !strings.Contains(body, "-&lt;P&gt;alpha beta gamma delta.&lt;/P&gt;") {
		t.Errorf("rcsdiff text: %d\n%s", code, body)
	}
}

func TestKeepaliveTrickle(t *testing.T) {
	// A slow retrieval must produce ignorable bytes before the answer.
	r := newRig(t)
	srv := NewServer(r.fac)
	srv.KeepaliveInterval = 10 * time.Millisecond
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	p := r.web.Site("h").Page("/p")
	p.SetDynamic(func(time.Time, int) string {
		time.Sleep(60 * time.Millisecond) // a slow origin
		return "<P>slow content.</P>\n"
	})
	code, body := get(t, ts.URL+"/remember?url="+url.QueryEscape("http://h/p")+"&user=u")
	if code != 200 {
		t.Fatalf("code = %d", code)
	}
	if !strings.HasPrefix(body, " ") {
		t.Errorf("no keepalive spaces before output: %q", body[:min(40, len(body))])
	}
	if !strings.Contains(body, "saved as revision 1.1") {
		t.Errorf("result missing after trickle:\n%s", body)
	}
}

func TestKeepaliveErrorInBand(t *testing.T) {
	r := newRig(t)
	srv := NewServer(r.fac)
	srv.KeepaliveInterval = 5 * time.Millisecond
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	r.web.Site("h").SetDown(true)
	// Hold the page's lock so Remember cannot fetch (and fail) until the
	// client has read several keepalive bytes.
	page := "http://h/x"
	unlock, err := r.fac.locks.Lock(r.fac.store.LockKey(page))
	if err != nil {
		t.Fatal(err)
	}
	unlock = sync.OnceFunc(unlock)
	defer unlock()
	resp, err := http.Get(ts.URL + "/remember?url=" + url.QueryEscape(page) + "&user=u")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	ticks := make([]byte, 3)
	if _, err := io.ReadFull(resp.Body, ticks); err != nil || string(ticks) != "   " {
		t.Fatalf("keepalive bytes = (%q, %v)", ticks, err)
	}
	unlock()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	// Headers were already streaming, so the error arrives in-band.
	if resp.StatusCode != 200 || !strings.Contains(string(body), "Error:") {
		t.Errorf("in-band error missing: %d\n%s", resp.StatusCode, body)
	}
}

// TestKeepaliveErrorBeforeTrickleGetsStatus: an operation that fails
// before the first keepalive byte answers with its real status, not an
// in-band error under 200 — 404 for a missing revision, 500 for an
// unreachable origin.
func TestKeepaliveErrorBeforeTrickleGetsStatus(t *testing.T) {
	r := newRig(t)
	srv := NewServer(r.fac)
	srv.KeepaliveInterval = time.Hour
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	r.web.Site("h").Page("/p").Set("<P>one</P>\n")
	if _, err := r.fac.Remember(context.Background(), userA, "http://h/p"); err != nil {
		t.Fatal(err)
	}
	code, body := get(t, ts.URL+"/diff?url="+url.QueryEscape("http://h/p")+"&r1=1.1&r2=1.9")
	if code != http.StatusNotFound {
		t.Errorf("diff to a missing revision: %d, want 404\n%s", code, body)
	}
	r.web.Site("h").SetDown(true)
	code, body = get(t, ts.URL+"/remember?url="+url.QueryEscape("http://h/p")+"&user=u")
	if code != http.StatusInternalServerError || strings.HasPrefix(body, " ") {
		t.Errorf("remember of an unreachable page: %d, want 500\n%s", code, body)
	}
}

func TestInjectBase(t *testing.T) {
	cases := []struct {
		doc, want string
	}{
		{"<HTML><HEAD><TITLE>x</TITLE></HEAD></HTML>", "<HEAD><BASE HREF=\"http://u/\"><TITLE>"},
		{"<p>no head</p>", "<BASE HREF=\"http://u/\"><p>no head</p>"},
		{"<head><base href=\"http://already/\"></head>", "http://already/"},
	}
	for _, c := range cases {
		got := InjectBase(c.doc, "http://u/")
		if !strings.Contains(got, c.want) {
			t.Errorf("InjectBase(%q) = %q, want contains %q", c.doc, got, c.want)
		}
	}
	// Existing BASE is not duplicated.
	got := InjectBase("<head><base href=\"http://already/\"></head>", "http://u/")
	if strings.Contains(got, "http://u/") {
		t.Errorf("duplicate BASE injected: %q", got)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
