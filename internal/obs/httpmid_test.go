package obs

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func midSnapshot(t *testing.T, reg *Registry) Snapshot {
	t.Helper()
	return reg.Snapshot()
}

// TestMiddlewareREDMetrics checks per-route labeled rate/error/duration
// recording, including the implicit 200 of a handler that only writes.
func TestMiddlewareREDMetrics(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(32)
	mux := http.NewServeMux()
	mux.HandleFunc("/implicit", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "body, no WriteHeader") // implicit 200
	})
	mux.HandleFunc("/empty", func(w http.ResponseWriter, r *http.Request) {
		// Neither WriteHeader nor Write: net/http sends 200.
	})
	mux.HandleFunc("/teapot", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
	})
	mux.HandleFunc("/boom", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	})
	h := HTTPMiddleware(mux, MiddlewareConfig{
		Registry: reg, Tracer: tr, Service: "test", Route: RouteFromMux(mux),
	})
	srv := httptest.NewServer(h)
	defer srv.Close()

	for _, path := range []string{"/implicit", "/empty", "/teapot", "/boom", "/nowhere"} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	s := midSnapshot(t, reg)
	for series, want := range map[string]int64{
		`http.requests{endpoint="/implicit",code="2xx"}`: 1,
		`http.requests{endpoint="/empty",code="2xx"}`:    1,
		`http.requests{endpoint="/teapot",code="4xx"}`:   1,
		`http.requests{endpoint="/boom",code="5xx"}`:     1,
		`http.requests{endpoint="/nowhere",code="4xx"}`:  0, // labeled by pattern, not path
		`http.requests{endpoint="unmatched",code="4xx"}`: 1, // ServeMux default 404
		`http.errors{endpoint="/boom",code="5xx"}`:       1,
	} {
		if got := s.Counters[series]; got != want {
			t.Errorf("%s = %d, want %d", series, got, want)
		}
	}
	if h := s.Histograms[`http.request.duration{endpoint="/implicit"}`]; h.Count != 1 {
		t.Errorf("duration for /implicit = %+v, want count 1", h)
	}
	if g := s.Gauges[`http.inflight{endpoint="/implicit"}`]; g != 0 {
		t.Errorf("inflight after completion = %d, want 0", g)
	}

	// Server spans recorded with route/status attrs.
	var serverSpans int
	for _, sp := range tr.Spans() {
		if sp.Name == "http.server" && sp.Attrs["route"] == "/boom" {
			serverSpans++
			if sp.Attrs["status"] != "500" {
				t.Errorf("boom span status = %q", sp.Attrs["status"])
			}
			if sp.Attrs["service"] != "test" {
				t.Errorf("boom span service = %q", sp.Attrs["service"])
			}
		}
	}
	if serverSpans != 1 {
		t.Errorf("http.server spans for /boom = %d, want 1", serverSpans)
	}
}

// TestMiddlewareFlusher checks Flush still reaches the client through
// the wrapper — the keepalive-trickle path.
func TestMiddlewareFlusher(t *testing.T) {
	reg := NewRegistry()
	mux := http.NewServeMux()
	flushed := false
	mux.HandleFunc("/trickle", func(w http.ResponseWriter, r *http.Request) {
		f, ok := w.(http.Flusher)
		if !ok {
			t.Error("wrapper lost http.Flusher")
			return
		}
		io.WriteString(w, " ")
		f.Flush()
		flushed = true
		io.WriteString(w, "done")
	})
	srv := httptest.NewServer(HTTPMiddleware(mux, MiddlewareConfig{
		Registry: reg, Tracer: NewTracer(8), Route: RouteFromMux(mux),
	}))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/trickle")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !flushed || string(body) != " done" {
		t.Errorf("flushed=%v body=%q", flushed, body)
	}
	if got := reg.Snapshot().Counters[`http.requests{endpoint="/trickle",code="2xx"}`]; got != 1 {
		t.Errorf("trickle requests = %d, want 1", got)
	}
}

// TestMiddlewareHijacker checks a handler can still hijack through the
// wrapper, and that the hijacked exchange is accounted separately
// rather than as a latency observation.
func TestMiddlewareHijacker(t *testing.T) {
	reg := NewRegistry()
	mux := http.NewServeMux()
	mux.HandleFunc("/raw", func(w http.ResponseWriter, r *http.Request) {
		hj, ok := w.(http.Hijacker)
		if !ok {
			t.Error("wrapper lost http.Hijacker")
			return
		}
		conn, rw, err := hj.Hijack()
		if err != nil {
			t.Errorf("hijack: %v", err)
			return
		}
		defer conn.Close()
		fmt.Fprint(rw, "HTTP/1.1 200 OK\r\nContent-Length: 3\r\nConnection: close\r\n\r\nraw")
		rw.Flush()
	})
	srv := httptest.NewServer(HTTPMiddleware(mux, MiddlewareConfig{
		Registry: reg, Tracer: NewTracer(8), Route: RouteFromMux(mux),
	}))
	defer srv.Close()

	conn, err := net_Dial(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "GET /raw HTTP/1.1\r\nHost: x\r\n\r\n")
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(line, "200") {
		t.Errorf("hijacked response line = %q", line)
	}

	// The client can see the raw response before the handler returns and
	// the middleware records the exchange, so wait for the counter.
	const hijacked = `http.requests{endpoint="/raw",code="hijacked"}`
	s := reg.Snapshot()
	for deadline := time.Now().Add(5 * time.Second); s.Counters[hijacked] == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		s = reg.Snapshot()
	}
	if got := s.Counters[hijacked]; got != 1 {
		t.Errorf("hijacked requests = %d, want 1; counters = %v", got, s.Counters)
	}
	if h := s.Histograms[`http.request.duration{endpoint="/raw"}`]; h.Count != 0 {
		t.Errorf("hijacked exchange observed a latency: %+v", h)
	}
}

// TestMiddlewareJoinsRemoteTrace checks the server span parents under an
// extracted traceparent.
func TestMiddlewareJoinsRemoteTrace(t *testing.T) {
	tr := NewTracer(8)
	mux := http.NewServeMux()
	mux.HandleFunc("/x", func(w http.ResponseWriter, r *http.Request) {})
	srv := httptest.NewServer(HTTPMiddleware(mux, MiddlewareConfig{
		Registry: NewRegistry(), Tracer: tr, Route: RouteFromMux(mux),
	}))
	defer srv.Close()

	const trace = "4bf92f3577b34da6a3ce929d0e0e4736"
	req, _ := http.NewRequest("GET", srv.URL+"/x", nil)
	req.Header.Set(TraceParentHeader, "00-"+trace+"-00f067aa0ba902b7-01")
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	spans := tr.Spans()
	if len(spans) != 1 {
		t.Fatalf("spans = %d, want 1", len(spans))
	}
	if spans[0].Trace != trace {
		t.Errorf("server span trace = %q, want %q", spans[0].Trace, trace)
	}
	if spans[0].Parent != 0x00f067aa0ba902b7 {
		t.Errorf("server span parent = %x, want 00f067aa0ba902b7", spans[0].Parent)
	}
}

// net_Dial opens a raw TCP connection to an httptest URL.
func net_Dial(url string) (io.ReadWriteCloser, error) {
	return net.Dial("tcp", strings.TrimPrefix(url, "http://"))
}
