package memento

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"aide/internal/flushwriter"
	"aide/internal/httpdate"
)

// Handlers serves the RFC 7089 endpoints for one Source. Zero fields
// beyond Source are required; PageSize defaults to DefaultPageSize.
type Handlers struct {
	Source   Source
	PageSize int
}

// Mount registers the Memento routes on mux:
//
//	/timegate/<url>  and /timegate?url=      TimeGate (pattern 1: 302)
//	/timemap/link/[<page>/]<url>             TimeMap, application/link-format
//	  and /timemap/link?url=&page=
//	/memento/<ts14>/<url>                    URI-M: one archived state
//	/memento/diff?url=&from=&to=             HtmlDiff between two mementos
//
// The path-embedded forms mirror public web-archive URI conventions;
// the query forms survive proxies and ServeMux path cleaning
// untouched, so scripted clients (CI smoke tests, bench/) prefer them.
func (h *Handlers) Mount(mux *http.ServeMux) {
	mux.HandleFunc("/timegate", h.timeGate)
	mux.HandleFunc("/timegate/", h.timeGate)
	mux.HandleFunc("/timemap/link", h.timeMap)
	mux.HandleFunc("/timemap/link/", h.timeMap)
	mux.HandleFunc("/memento/diff", h.diff)
	mux.HandleFunc("/memento/", h.memento)
}

// ResolverFor mints URIs for the host the client addressed, so
// Location and Link values work from wherever the archive is
// reachable; with no Host the URIs come out host-relative.
func ResolverFor(r *http.Request) Resolver {
	if r.Host == "" {
		return Resolver{}
	}
	scheme := "http"
	if r.TLS != nil {
		scheme = "https"
	}
	return Resolver{Base: scheme + "://" + r.Host}
}

// MementoLinks renders the Link header value for a response serving
// ms[i]: the original/timegate/timemap relations, neighbouring
// mementos when they exist, and the served memento itself with its
// datetime. Shared by the URI-M handler and the snapshot server's
// native checkout endpoint (RFC 7089 §2.2.1: any response whose
// entity-body is a memento carries these links).
func MementoLinks(res Resolver, pageURL string, ms []Memento, i int) string {
	ls := linkSet{sep: ", "}
	ls.add(pageURL, "original")
	ls.add(res.TimeGate(pageURL), "timegate")
	ls.add(res.TimeMap(pageURL, 1), "timemap", "type", ContentType)
	if i > 0 {
		ls.add(res.Memento(pageURL, ms[i-1]), "prev memento", "datetime", httpdate.Format(ms[i-1].Time))
	}
	if i < len(ms)-1 {
		ls.add(res.Memento(pageURL, ms[i+1]), "next memento", "datetime", httpdate.Format(ms[i+1].Time))
	}
	ls.add(res.Memento(pageURL, ms[i]), "memento", "datetime", httpdate.Format(ms[i].Time))
	return ls.String()
}

// DiffLinks renders the Link header for a diff whose entity-body
// derives from two mementos, ms[fi] (older) and ms[ti] (newer).
func DiffLinks(res Resolver, pageURL string, ms []Memento, fi, ti int) string {
	ls := linkSet{sep: ", "}
	ls.add(pageURL, "original")
	ls.add(res.TimeGate(pageURL), "timegate")
	ls.add(res.TimeMap(pageURL, 1), "timemap", "type", ContentType)
	ls.add(res.Memento(pageURL, ms[fi]), "memento", "datetime", httpdate.Format(ms[fi].Time))
	ls.add(res.Memento(pageURL, ms[ti]), "memento", "datetime", httpdate.Format(ms[ti].Time))
	return ls.String()
}

func (h *Handlers) pageSize() int {
	if h.PageSize > 0 {
		return h.PageSize
	}
	return DefaultPageSize
}

// target recovers the Original Resource URL from a request: the path
// remainder after prefix when present (undoing ServeMux's scheme-slash
// collapse and re-attaching the query string the embedded URL carried),
// the url query parameter otherwise.
func target(r *http.Request, prefix string) string {
	rest := strings.TrimPrefix(r.URL.Path, prefix)
	rest = strings.TrimPrefix(rest, "/")
	if rest == "" {
		return r.URL.Query().Get("url")
	}
	if r.URL.RawQuery != "" {
		rest += "?" + r.URL.RawQuery
	}
	return fixScheme(rest)
}

// index loads the memento list for a target, writing the HTTP error
// itself when the lookup fails. ok is false when a response was
// already written.
func (h *Handlers) index(w http.ResponseWriter, pageURL string) (ms []Memento, ok bool) {
	if pageURL == "" {
		http.Error(w, "missing target URL (append /<url> to the path or pass ?url=)", http.StatusBadRequest)
		return nil, false
	}
	ms, err := h.Source.Index(pageURL)
	switch {
	case errors.Is(err, ErrNotArchived):
		http.Error(w, err.Error(), http.StatusNotFound)
		return nil, false
	case err != nil:
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return nil, false
	case len(ms) == 0:
		http.Error(w, ErrNotArchived.Error(), http.StatusNotFound)
		return nil, false
	}
	return ms, true
}

// timeGate negotiates in the datetime dimension (RFC 7089 pattern 1):
// 302 to the URI-M closest to Accept-Datetime, latest memento when the
// header is absent.
func (h *Handlers) timeGate(w http.ResponseWriter, r *http.Request) {
	pageURL := target(r, "/timegate")
	ms, ok := h.index(w, pageURL)
	if !ok {
		return
	}
	i := len(ms) - 1 // no Accept-Datetime: most recent memento
	if adt := r.Header.Get("Accept-Datetime"); adt != "" {
		t, err := httpdate.Parse(adt)
		if err != nil {
			http.Error(w, "Accept-Datetime must be an HTTP-date: "+err.Error(), http.StatusBadRequest)
			return
		}
		i = Negotiate(ms, t)
	}
	res := ResolverFor(r)
	ls := linkSet{sep: ", "}
	ls.add(pageURL, "original")
	ls.add(res.TimeMap(pageURL, 1), "timemap", "type", ContentType)
	ls.add(res.Memento(pageURL, ms[0]), "first memento", "datetime", httpdate.Format(ms[0].Time))
	ls.add(res.Memento(pageURL, ms[len(ms)-1]), "last memento", "datetime", httpdate.Format(ms[len(ms)-1].Time))
	hdr := w.Header()
	hdr.Set("Vary", "accept-datetime")
	hdr.Set("Link", ls.String())
	hdr.Set("Location", res.Memento(pageURL, ms[i]))
	w.WriteHeader(http.StatusFound)
	fmt.Fprintf(w, "see %s\n", res.Memento(pageURL, ms[i]))
}

// timeMap serves one application/link-format page of a URL's memento
// list. The path form carries the page as a leading all-digit segment
// (/timemap/link/2/<url>); page 1 omits it.
func (h *Handlers) timeMap(w http.ResponseWriter, r *http.Request) {
	page := 1
	rest := strings.TrimPrefix(r.URL.Path, "/timemap/link")
	rest = strings.TrimPrefix(rest, "/")
	if seg, tail, found := strings.Cut(rest, "/"); found && isTimestamp(seg) {
		n, err := strconv.Atoi(seg)
		if err != nil || n < 1 {
			http.Error(w, "bad TimeMap page number", http.StatusBadRequest)
			return
		}
		page = n
		r.URL.Path = "/timemap/link/" + tail
	} else if rest == "" {
		if p := r.URL.Query().Get("page"); p != "" {
			n, err := strconv.Atoi(p)
			if err != nil || n < 1 {
				http.Error(w, "bad TimeMap page number", http.StatusBadRequest)
				return
			}
			page = n
		}
	}
	pageURL := target(r, "/timemap/link")
	ms, ok := h.index(w, pageURL)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", ContentType)
	var b strings.Builder
	if err := WriteTimeMap(&b, ResolverFor(r), pageURL, ms, page, h.pageSize()); err != nil {
		if errors.Is(err, ErrNoPage) {
			http.Error(w, err.Error(), http.StatusNotFound)
		} else {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return
	}
	fw := flushwriter.New(w, 0)
	fw.WriteStringChunks(b.String())
}

// memento serves one archived state: /memento/<ts14>/<url>. A
// timestamp between captures negotiates to the closest memento and
// names the canonical URI-M in Content-Location.
func (h *Handlers) memento(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/memento/")
	seg, tail, found := strings.Cut(rest, "/")
	if !found || !isTimestamp(seg) {
		http.Error(w, "want /memento/<YYYYMMDDhhmmss>/<url>", http.StatusBadRequest)
		return
	}
	t, err := ParseTimestamp(seg)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	pageURL := tail
	if r.URL.RawQuery != "" {
		pageURL += "?" + r.URL.RawQuery
	}
	pageURL = fixScheme(pageURL)
	ms, ok := h.index(w, pageURL)
	if !ok {
		return
	}
	i := Negotiate(ms, t)
	m := ms[i]
	doc, err := h.Source.Checkout(pageURL, m.Rev)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	res := ResolverFor(r)
	hdr := w.Header()
	hdr.Set("Memento-Datetime", httpdate.Format(m.Time))
	hdr.Set("Link", MementoLinks(res, pageURL, ms, i))
	hdr.Set("Content-Type", "text/html; charset=utf-8")
	if !m.Time.Equal(t) {
		// Negotiated away from the requested instant: name the canonical
		// URI-M so clients can cache under the right key.
		hdr.Set("Content-Location", res.Memento(pageURL, m))
	}
	fw := flushwriter.New(w, 0)
	fw.WriteStringChunks(doc)
}

// diff renders the HtmlDiff between the mementos closest to the from
// and to instants: /memento/diff?url=&from=&to=. Datetimes accept both
// 14-digit timestamps and HTTP-dates; to defaults to the latest
// memento.
func (h *Handlers) diff(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	pageURL := q.Get("url")
	ms, ok := h.index(w, pageURL)
	if !ok {
		return
	}
	from, err := parseDatetime(q.Get("from"))
	if err != nil {
		http.Error(w, "bad from datetime: "+err.Error(), http.StatusBadRequest)
		return
	}
	fi := Negotiate(ms, from)
	ti := len(ms) - 1
	if v := q.Get("to"); v != "" {
		to, err := parseDatetime(v)
		if err != nil {
			http.Error(w, "bad to datetime: "+err.Error(), http.StatusBadRequest)
			return
		}
		ti = Negotiate(ms, to)
	}
	if fi > ti {
		fi, ti = ti, fi // always diff forward in time
	}
	render, err := h.Source.DiffStream(pageURL, ms[fi].Rev, ms[ti].Rev)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	hdr := w.Header()
	hdr.Set("Memento-Datetime", httpdate.Format(ms[ti].Time))
	hdr.Set("Link", DiffLinks(ResolverFor(r), pageURL, ms, fi, ti))
	hdr.Set("Content-Type", "text/html; charset=utf-8")
	fw := flushwriter.New(w, 0)
	if err := render(fw); err != nil && fw.Written() == 0 {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// parseDatetime accepts either URI-M timestamp or HTTP-date forms for
// query parameters; empty means "now is unspecified" and is an error —
// callers choose their own defaults before calling.
func parseDatetime(s string) (t time.Time, err error) {
	if s == "" {
		return time.Time{}, errors.New("empty datetime")
	}
	if isTimestamp(s) {
		return ParseTimestamp(s)
	}
	return httpdate.Parse(s)
}
