package snapshot

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"html"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"aide/internal/breaker"
	"aide/internal/flushwriter"
	"aide/internal/memento"
	"aide/internal/obs"
	"aide/internal/rcs"
)

// This file is the facility's HTTP face: the CGI-style GET endpoints of
// §4 and §6 (/remember, /diff, /history), the server-side version-control
// scripts of §8.1 (/rlog, /co, /rcsdiff), and the §4.2 keepalive trickle
// — while a long retrieval or comparison runs, the handler emits a space
// character (ignored by the browser) every few seconds so httpd's CGI
// timeout does not sever the connection.

// Server wraps a Facility with HTTP handlers.
type Server struct {
	// Facility is the underlying service.
	Facility *Facility
	// KeepaliveInterval is the trickle cadence for long operations;
	// zero disables the trickle (useful in tests).
	KeepaliveInterval time.Duration
	// Accounts, when non-nil, switches the facility to the §4.2
	// authenticated mode: the user parameter must be a valid account ID
	// and requests must carry its password.
	Accounts *Accounts
	// MaxSimultaneous, when positive, bounds concurrent requests; excess
	// clients get 503 (§4.2: "impose a limit on the number of
	// simultaneous users").
	MaxSimultaneous int
	// RequestTimeout, when positive, bounds the work done for one
	// request: each handler derives its context from the request's and
	// adds this deadline, so a hung upstream fetch cannot pin a handler
	// (and its Gate slot) forever.
	RequestTimeout time.Duration
	// Replicator, when non-nil, is this server's replica fan-out; its
	// per-replica status shows up in /debug/shards.
	Replicator *Replicator
	// Scrubber, when non-nil, is the background checksum scrubber; its
	// pass totals show up in /debug/shards.
	Scrubber *Scrubber
	// TimeMapPage is the memento count per TimeMap page on the RFC 7089
	// endpoints; zero means memento.DefaultPageSize.
	TimeMapPage int
}

// reqCtx derives the working context for one request: the request's own
// context (canceled when the client goes away) plus the server's
// per-request deadline. With no deadline configured the request context
// is used as-is — no derived context, no cancel bookkeeping per request.
func (s *Server) reqCtx(r *http.Request) (context.Context, context.CancelFunc) {
	ctx := r.Context()
	if s.RequestTimeout > 0 {
		return context.WithTimeout(ctx, s.RequestTimeout)
	}
	return ctx, noopCancel
}

func noopCancel() {}

// NewServer returns a Server with the paper-style keepalive enabled.
func NewServer(f *Facility) *Server {
	return &Server{Facility: f, KeepaliveInterval: 5 * time.Second}
}

// Handler returns the facility's HTTP face: the routes behind the
// optional load-shedding gate, the whole stack wrapped in the RED
// middleware so every route (gate rejections included) lands in the
// labeled http.* metrics and joins propagated traces.
func (s *Server) Handler() http.Handler {
	mux, setGate := s.routes()
	var h http.Handler = mux
	if s.MaxSimultaneous > 0 {
		gate := NewGate(mux, s.MaxSimultaneous)
		gate.Metrics = s.Facility.metrics()
		setGate(gate)
		h = gate
	}
	return obs.HTTPMiddleware(h, obs.MiddlewareConfig{
		Registry: s.Facility.metrics(),
		Service:  "snapshotd",
		Route:    obs.RouteFromMux(mux),
		Shard:    s.ShardLabel,
	})
}

// Embedded returns the routes without the server's own gate or RED
// middleware — for mounting under the aide mux, which applies its own
// gate and a single middleware over the combined routes — plus the
// route-pattern resolver the outer middleware labels these routes with.
func (s *Server) Embedded() (http.Handler, func(r *http.Request) string) {
	mux, _ := s.routes()
	return mux, obs.RouteFromMux(mux)
}

// ShardLabel maps a request to the shard its page lives on ("" for
// unsharded stores and shard-free requests) — the bounded shard label on
// http.requests.by_shard.
func (s *Server) ShardLabel(r *http.Request) string {
	if s.Facility == nil || s.Facility.Shards() <= 1 {
		return ""
	}
	q := r.URL.Query()
	if v := q.Get("shard"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n >= 0 && n < s.Facility.Shards() {
			return v
		}
		return ""
	}
	if u := q.Get("url"); u != "" {
		return strconv.Itoa(s.Facility.ShardOf(u))
	}
	return ""
}

// routes builds the facility mux. The returned setter installs the gate
// the /debug/health closure reports on once the caller has built it.
func (s *Server) routes() (*http.ServeMux, func(*Gate)) {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/remember", s.handleRemember)
	mux.HandleFunc("/diff", s.handleDiff)
	mux.HandleFunc("/history", s.handleHistory)
	mux.HandleFunc("/co", s.handleCheckout)
	mux.HandleFunc("/rlog", s.handleRlog)
	mux.HandleFunc("/rcsdiff", s.handleRcsdiff)
	mux.HandleFunc("/account/new", s.handleAccountNew)
	mux.HandleFunc("/export", s.handleExport)
	mux.HandleFunc("/shard/manifest", s.handleShardManifest)
	mux.HandleFunc("/shard/export", s.handleShardExport)
	mux.HandleFunc("/shard/import", s.handleShardImport)
	mux.HandleFunc("/debug/shards", s.handleDebugShards)
	// RFC 7089 time travel: TimeGate negotiation, TimeMaps, URI-Ms, and
	// datetime-addressed diffs, all resolving through the facility's
	// revision index. Mounted on the same mux, so the patterns land in
	// the RED middleware's bounded endpoint labels via RouteFromMux.
	mh := &memento.Handlers{Source: mementoSource{f: s.Facility}, PageSize: s.TimeMapPage}
	mh.Mount(mux)
	debug := obs.Handler(s.Facility.metrics(), nil)
	mux.Handle("/debug/metrics", debug)
	mux.Handle("/metrics", debug)
	mux.Handle("/debug/traces", debug)
	var gate *Gate
	mux.HandleFunc("/debug/health", func(w http.ResponseWriter, r *http.Request) {
		var set *breaker.Set
		if s.Facility.client != nil {
			set = s.Facility.client.Breakers
		}
		ServeHealth(w, set, gate)
	})
	return mux, func(g *Gate) { gate = g }
}

// HealthStatus is the /debug/health payload: the failure-isolation
// layer's view of the process — which upstream hosts are tripped and
// how loaded the request gate is.
type HealthStatus struct {
	// Status is "ok" when no breaker is open, "degraded" otherwise.
	Status string `json:"status"`
	// OpenHosts counts breakers currently open or half-open.
	OpenHosts int `json:"open_hosts"`
	// Breakers is the per-host breaker state, sorted by host.
	Breakers []breaker.HostState `json:"breakers,omitempty"`
	// Gate reports the load-shedding gate, when one is configured.
	Gate *GateStatus `json:"gate,omitempty"`
}

// GateStatus is the load-shedding gate's health view.
type GateStatus struct {
	InFlight int `json:"in_flight"`
	Capacity int `json:"capacity"`
	Rejected int `json:"rejected"`
}

// Health assembles a HealthStatus from a breaker set and a gate (either
// may be nil).
func Health(set *breaker.Set, gate *Gate) HealthStatus {
	h := HealthStatus{Status: "ok"}
	if set != nil {
		h.Breakers = set.Snapshot()
		for _, b := range h.Breakers {
			if b.State != "closed" {
				h.OpenHosts++
			}
		}
	}
	if h.OpenHosts > 0 {
		h.Status = "degraded"
	}
	if gate != nil {
		h.Gate = &GateStatus{InFlight: gate.InFlight(), Capacity: gate.Capacity(), Rejected: gate.Rejected()}
	}
	return h
}

// ServeHealth writes the health payload as JSON — shared by the
// snapshot and aide servers' /debug/health endpoints.
func ServeHealth(w http.ResponseWriter, set *breaker.Set, gate *Gate) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(Health(set, gate))
}

// handleIndex serves the HTML form through which pages are registered
// with the service (§4.1: "Pages can be registered with the service via
// an HTML form, and differences can be retrieved in the same fashion").
func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html")
	fmt.Fprint(w, `<HTML><HEAD><TITLE>AIDE snapshot facility</TITLE></HEAD><BODY>
<H1>AIDE snapshot facility</H1>
<P>Save a copy of a page, or see how it has changed since you saved it.</P>
<FORM ACTION="/remember" METHOD="GET">
URL: <INPUT NAME="url" SIZE=60>
Your email: <INPUT NAME="user" SIZE=30>
<INPUT TYPE=SUBMIT VALUE="Remember">
</FORM>
<FORM ACTION="/diff" METHOD="GET">
URL: <INPUT NAME="url" SIZE=60>
Your email: <INPUT NAME="user" SIZE=30>
<INPUT TYPE=SUBMIT VALUE="Diff">
</FORM>
<FORM ACTION="/history" METHOD="GET">
URL: <INPUT NAME="url" SIZE=60>
Your email: <INPUT NAME="user" SIZE=30>
<INPUT TYPE=SUBMIT VALUE="History">
</FORM>
</BODY></HTML>
`)
}

// userURL extracts the common query parameters.
func userURL(r *http.Request) (user, pageURL string) {
	q := r.URL.Query()
	return q.Get("user"), q.Get("url")
}

// handleRemember implements the report's Remember link (§6).
func (s *Server) handleRemember(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	user, err := s.authUser(q)
	if err != nil {
		http.Error(w, err.Error(), http.StatusUnauthorized)
		return
	}
	pageURL := q.Get("url")
	if pageURL == "" {
		http.Error(w, "missing url parameter", http.StatusBadRequest)
		return
	}
	ctx, cancel := s.reqCtx(r)
	defer cancel()
	w.Header().Set("Content-Type", "text/html")
	s.withKeepalive(w, func() (string, error) {
		res, err := s.Facility.Remember(ctx, user, pageURL)
		if err != nil {
			return "", err
		}
		verb := "saved as revision " + res.Rev
		if !res.Changed {
			verb = "unchanged since revision " + res.Rev + "; not saved again"
		}
		return fmt.Sprintf(
			"<HTML><BODY><H2>Remembered</H2><P><A HREF=\"%s\">%s</A>: %s.</P></BODY></HTML>\n",
			html.EscapeString(pageURL), html.EscapeString(pageURL), verb), nil
	})
}

// handleDiff implements the report's Diff link: with r1/r2 it compares
// two archived revisions; otherwise it compares the user's last-saved
// version against the live page.
func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	user, err := s.authUser(q)
	if err != nil {
		http.Error(w, err.Error(), http.StatusUnauthorized)
		return
	}
	pageURL := q.Get("url")
	if pageURL == "" {
		http.Error(w, "missing url parameter", http.StatusBadRequest)
		return
	}
	r1, r2 := q.Get("r1"), q.Get("r2")
	ctx, cancel := s.reqCtx(r)
	defer cancel()
	if r1 != "" && r2 != "" {
		// Archived-pair comparison: the response derives from two
		// mementos, so stamp their timeline position before any byte
		// (keepalive trickle included) flushes the headers.
		s.setDiffMementoHeaders(w, r, pageURL, r1, r2)
	}
	w.Header().Set("Content-Type", "text/html")
	s.streamKeepalive(w, func() (func(io.Writer) error, error) {
		var ds *DiffStream
		var err error
		if r1 != "" && r2 != "" {
			ds, err = s.Facility.DiffRevsStream(pageURL, r1, r2)
		} else {
			ds, err = s.Facility.DiffSinceSavedStream(ctx, user, pageURL)
		}
		if err != nil {
			return nil, err
		}
		return ds.Render, nil
	})
}

// handleHistory implements the report's History link: the full version
// log with links to view any revision or diff any adjacent pair (§6).
func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	user, err := s.authUser(q)
	if err != nil {
		http.Error(w, err.Error(), http.StatusUnauthorized)
		return
	}
	pageURL := q.Get("url")
	if pageURL == "" {
		http.Error(w, "missing url parameter", http.StatusBadRequest)
		return
	}
	revs, seen, err := s.Facility.History(user, pageURL)
	if err != nil {
		httpError(w, err)
		return
	}
	w.Header().Set("Content-Type", "text/html")
	// Rows stream straight to the client: a long history never
	// materialises, and a hung-up client stops the loop at the next row.
	fw := flushwriter.New(w, 0)
	fmt.Fprintf(fw, "<HTML><HEAD><TITLE>History of %s</TITLE></HEAD><BODY>\n", html.EscapeString(pageURL))
	fmt.Fprintf(fw, "<H1>Version history</H1>\n<P><A HREF=\"%s\">%s</A></P>\n<UL>\n",
		html.EscapeString(pageURL), html.EscapeString(pageURL))
	esc := escapeQuery(pageURL)
	for i, rev := range revs {
		if fw.Err() != nil {
			return
		}
		seenMark := ""
		if seen[rev.Num] {
			seenMark = " <B>(seen by you)</B>"
		}
		fmt.Fprintf(fw, `<LI>%s &mdash; %s by %s%s [<A HREF="/co?url=%s&rev=%s">view</A>]`,
			rev.Num, rev.Date.UTC().Format(time.ANSIC), html.EscapeString(rev.Author), seenMark, esc, rev.Num)
		if i+1 < len(revs) {
			fmt.Fprintf(fw, ` [<A HREF="/diff?url=%s&r1=%s&r2=%s">diff to %s</A>]`,
				esc, revs[i+1].Num, rev.Num, revs[i+1].Num)
		}
		fw.WriteString("\n")
	}
	fw.WriteString("</UL>\n</BODY></HTML>\n")
}

// handleCheckout serves an archived revision (/cgi-bin/co of §8.1),
// injecting a BASE directive so relative links resolve against the
// original location rather than the facility (§4.1).
func (s *Server) handleCheckout(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	pageURL := q.Get("url")
	if pageURL == "" {
		http.Error(w, "missing url parameter", http.StatusBadRequest)
		return
	}
	var text, rev string
	var err error
	if dateStr := q.Get("date"); dateStr != "" {
		var t time.Time
		t, err = time.Parse(time.RFC3339, dateStr)
		if err != nil {
			http.Error(w, "bad date (want RFC 3339): "+err.Error(), http.StatusBadRequest)
			return
		}
		text, rev, err = s.Facility.CheckoutAtDate(pageURL, t)
	} else {
		rev = q.Get("rev")
		text, err = s.Facility.Checkout(pageURL, rev)
	}
	if err != nil {
		httpError(w, err)
		return
	}
	s.setMementoHeaders(w, r, pageURL, rev)
	w.Header().Set("Content-Type", "text/html")
	fw := flushwriter.New(w, 0)
	writeWithBase(fw, text, pageURL)
}

// handleRlog renders the plain revision log (/cgi-bin/rlog of §8.1).
func (s *Server) handleRlog(w http.ResponseWriter, r *http.Request) {
	_, pageURL := userURL(r)
	if pageURL == "" {
		http.Error(w, "missing url parameter", http.StatusBadRequest)
		return
	}
	revs, _, err := s.Facility.History("", pageURL)
	if err != nil {
		httpError(w, err)
		return
	}
	w.Header().Set("Content-Type", "text/html")
	fw := flushwriter.New(w, 0)
	fmt.Fprintf(fw, "<HTML><BODY><H1>rlog %s</H1>\n<PRE>\n", html.EscapeString(pageURL))
	for _, rev := range revs {
		if fw.Err() != nil {
			return
		}
		fmt.Fprintf(fw, "revision %s\ndate: %s;  author: %s\n%s\n----------------------------\n",
			rev.Num, rev.Date.UTC().Format("2006/01/02 15:04:05"), html.EscapeString(rev.Author),
			html.EscapeString(rev.Log))
	}
	fw.WriteString("</PRE></BODY></HTML>\n")
}

// handleRcsdiff shows differences between two revisions: HtmlDiff for
// HTML documents, a <PRE> unified diff otherwise ("If the file's name
// ends in .html then HtmlDiff is used", §8.1 — here selected by the
// mode parameter with HtmlDiff as the HTML-era default).
func (s *Server) handleRcsdiff(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	pageURL, r1, r2 := q.Get("url"), q.Get("r1"), q.Get("r2")
	if pageURL == "" || r1 == "" || r2 == "" {
		http.Error(w, "need url, r1, r2 parameters", http.StatusBadRequest)
		return
	}
	s.setDiffMementoHeaders(w, r, pageURL, r1, r2)
	w.Header().Set("Content-Type", "text/html")
	if q.Get("mode") == "text" {
		d, err := s.Facility.archive(pageURL).DiffRevs(r1, r2)
		if err != nil {
			httpError(w, err)
			return
		}
		fmt.Fprintf(w, "<HTML><BODY><PRE>%s</PRE></BODY></HTML>\n", html.EscapeString(d))
		return
	}
	ds, err := s.Facility.DiffRevsStream(pageURL, r1, r2)
	if err != nil {
		httpError(w, err)
		return
	}
	fw := flushwriter.New(w, 0)
	ds.Render(fw)
}

// withKeepalive runs work while trickling ignorable bytes to the client,
// then writes the result. This reproduces the §4.2 hack: "snapshot forks
// a child process that generates one space character (ignored by the W3
// browser) every several seconds while the parent is retrieving a page
// or executing HtmlDiff".
func (s *Server) withKeepalive(w http.ResponseWriter, work func() (string, error)) {
	if s.KeepaliveInterval <= 0 {
		out, err := work()
		if err != nil {
			httpError(w, err)
			return
		}
		fmt.Fprint(w, out)
		return
	}
	type outcome struct {
		out string
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		out, err := work()
		done <- outcome{out, err}
	}()
	ticker := time.NewTicker(s.KeepaliveInterval)
	defer ticker.Stop()
	flusher, _ := w.(http.Flusher)
	trickled := false
	for {
		select {
		case <-ticker.C:
			// One space, ignored by the browser, keeps httpd happy.
			fmt.Fprint(w, " ")
			if flusher != nil {
				flusher.Flush()
			}
			trickled = true
		case o := <-done:
			if o.err != nil {
				keepaliveError(w, o.err, trickled)
				return
			}
			fmt.Fprint(w, o.out)
			return
		}
	}
}

// streamKeepalive is withKeepalive for streamed responses: prepare does
// the slow work (fetch, checkout, alignment) while the §4.2 trickle
// keeps the connection alive, and the returned render function then
// streams the page through a Flusher-aware writer — first bytes reach
// the client while the tail is still being rendered, and a client that
// hung up turns the rest of the render into no-ops via the writer's
// sticky error.
func (s *Server) streamKeepalive(w http.ResponseWriter, prepare func() (func(io.Writer) error, error)) {
	stream := func(render func(io.Writer) error) {
		fw := flushwriter.New(w, 0)
		render(fw) // write errors are sticky in fw; nothing to add here
	}
	if s.KeepaliveInterval <= 0 {
		render, err := prepare()
		if err != nil {
			httpError(w, err)
			return
		}
		stream(render)
		return
	}
	type outcome struct {
		render func(io.Writer) error
		err    error
	}
	done := make(chan outcome, 1)
	go func() {
		render, err := prepare()
		done <- outcome{render, err}
	}()
	ticker := time.NewTicker(s.KeepaliveInterval)
	defer ticker.Stop()
	flusher, _ := w.(http.Flusher)
	trickled := false
	for {
		select {
		case <-ticker.C:
			// One space, ignored by the browser, keeps httpd happy.
			fmt.Fprint(w, " ")
			if flusher != nil {
				flusher.Flush()
			}
			trickled = true
		case o := <-done:
			if o.err != nil {
				keepaliveError(w, o.err, trickled)
				return
			}
			stream(o.render)
			return
		}
	}
}

// keepaliveError reports a failed keepalive operation. Until the first
// trickle byte the status line is still unsent, so the error gets its
// real status (404 for a missing revision); after it the headers are out
// with 200 and the error can only go in-band.
func keepaliveError(w http.ResponseWriter, err error, trickled bool) {
	if !trickled {
		httpError(w, err)
		return
	}
	fmt.Fprintf(w, "<HTML><BODY><B>Error:</B> %s</BODY></HTML>\n", html.EscapeString(err.Error()))
}

// writeWithBase streams doc with the §4.1 BASE directive injected. It
// scans case-insensitively in place — InjectBase's strings.ToUpper
// would copy a multi-MB page just to find two tags.
func writeWithBase(fw *flushwriter.Writer, doc, baseURL string) error {
	if indexFold(doc, "<BASE") >= 0 {
		return fw.WriteStringChunks(doc) // author already set one
	}
	at := 0
	if i := indexFold(doc, "<HEAD>"); i >= 0 {
		at = i + len("<HEAD>")
	}
	if err := fw.WriteStringChunks(doc[:at]); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(fw, "<BASE HREF=\"%s\">", baseURL); err != nil {
		return err
	}
	return fw.WriteStringChunks(doc[at:])
}

// indexFold is an allocation-free case-insensitive strings.Index for an
// already-uppercase ASCII needle.
func indexFold(s, upperNeedle string) int {
	n := len(upperNeedle)
	if n == 0 || n > len(s) {
		return -1
	}
	first := upperNeedle[0]
	for i := 0; i+n <= len(s); i++ {
		if upperASCII(s[i]) != first {
			continue
		}
		j := 1
		for ; j < n; j++ {
			if upperASCII(s[i+j]) != upperNeedle[j] {
				break
			}
		}
		if j == n {
			return i
		}
	}
	return -1
}

func upperASCII(c byte) byte {
	if c >= 'a' && c <= 'z' {
		return c - ('a' - 'A')
	}
	return c
}

// InjectBase inserts a <BASE HREF=...> directive so that relative links
// in an archived copy resolve against the page's original home (§4.1).
// The directive goes just after <HEAD> when present, else at the front.
func InjectBase(doc, baseURL string) string {
	tag := fmt.Sprintf("<BASE HREF=\"%s\">", baseURL)
	upper := strings.ToUpper(doc)
	if strings.Contains(upper, "<BASE") {
		return doc // author already set one
	}
	if i := strings.Index(upper, "<HEAD>"); i >= 0 {
		at := i + len("<HEAD>")
		return doc[:at] + tag + doc[at:]
	}
	return tag + doc
}

// queryEscaper is built once: a strings.Replacer compiles its search
// structure on first use, which showed up in serving profiles when it
// was rebuilt per request.
var queryEscaper = strings.NewReplacer("%", "%25", "&", "%26", "+", "%2B", " ", "%20", "#", "%23", "?", "%3F", "=", "%3D", "/", "%2F", ":", "%3A")

func escapeQuery(s string) string {
	return queryEscaper.Replace(s)
}

// httpError maps facility errors to HTTP statuses.
func httpError(w http.ResponseWriter, err error) {
	switch {
	case err == nil:
		return
	case errors.Is(err, rcs.ErrNoRevision),
		errors.Is(err, rcs.ErrNoArchive),
		errors.Is(err, ErrNeverSaved):
		http.Error(w, err.Error(), http.StatusNotFound)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
