package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"aide/internal/aide"
	"aide/internal/fsatomic"
	"aide/internal/htmldiff"
	"aide/internal/htmldoc"
	"aide/internal/memento"
	"aide/internal/obs"
	"aide/internal/rcs"
	"aide/internal/snapshot"
	"aide/internal/textdiff"
	"aide/internal/w3config"
	"aide/internal/webclient"
)

// The traced pass replays the head of a workload's operation sequence
// in this process, on one goroutine, against a corpus seeded exactly as
// for the measured run, and times the calls into each layer's public
// functions. Where the code offers a seam (http.Handler, the facility's
// Store, the web client's Transport) the span nests inside the request
// that caused it; layers without one are timed as sibling spans on the
// same inputs, right after the request.

// tracedOps is how much of the operation sequence the pass replays.
const tracedOps = 2000

// span is one timed call. Parent is the index of the enclosing span in
// the trace, -1 for a root; spans of one operation share Op.
type span struct {
	Op     int    `json:"op_id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	// Self is End-Start minus the part of that interval the span's
	// children cover, filled in when the pass ends.
	Self int64 `json:"self_ns"`
}

// tracer keeps spans in memory. Nested spans form a stack owned by the
// replaying goroutine; leaves may come from any goroutine (the server's
// keep-alive and pre-warm workers) and hang under the innermost open
// span without joining the stack.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	op    int
	stack []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) open(name string, push bool) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Op: t.op, Name: name, Start: int64(time.Since(t.t0)), Parent: parent})
	i := len(t.spans) - 1
	if push {
		t.stack = append(t.stack, i)
	}
	return i
}

func (t *tracer) close(i int, pop bool) time.Duration {
	end := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = end
	if pop {
		t.stack = t.stack[:len(t.stack)-1]
	}
	return time.Duration(end - t.spans[i].Start)
}

// in runs f inside a nested span and returns its duration.
func (t *tracer) in(name string, f func()) time.Duration {
	i := t.open(name, true)
	f()
	return t.close(i, true)
}

// leaf opens a leaf span; call the result to close it.
func (t *tracer) leaf(name string) func() {
	i := t.open(name, false)
	return func() { t.close(i, false) }
}

// finish computes self times and writes the trace as JSON lines.
func (t *tracer) finish(path string) error {
	kids := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		s.Self = s.End - s.Start - covered(t.spans, kids[i], s.Start, s.End)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// covered is the length of the union of the children's intervals,
// clipped to [start, end].
func covered(spans []span, kids []int, start, end int64) int64 {
	sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
	var total int64
	at := start
	for _, k := range kids {
		s, e := max(spans[k].Start, at), min(spans[k].End, end)
		if e > s {
			total += e - s
			at = e
		}
	}
	return total
}

// timedStore is the Store seam: every placement call the facility makes
// becomes a leaf span.
type timedStore struct {
	snapshot.Store
	t *tracer
}

func (s timedStore) ArchivePath(u string) string {
	defer s.t.leaf("store.ArchivePath")()
	return s.Store.ArchivePath(u)
}

func (s timedStore) UserPath(user string) string {
	defer s.t.leaf("store.UserPath")()
	return s.Store.UserPath(user)
}

func (s timedStore) LockKey(u string) string {
	defer s.t.leaf("store.LockKey")()
	return s.Store.LockKey(u)
}

func (s timedStore) ShardOf(u string) int {
	defer s.t.leaf("store.ShardOf")()
	return s.Store.ShardOf(u)
}

func (s timedStore) NoteURL(u string) error {
	defer s.t.leaf("store.NoteURL")()
	return s.Store.NoteURL(u)
}

func (s timedStore) Place(kind, name string) (string, error) {
	defer s.t.leaf("store.Place")()
	return s.Store.Place(kind, name)
}

var storeMethods = []string{"ArchivePath", "UserPath", "LockKey", "ShardOf", "NoteURL", "Place"}

// timedTransport is the web client's Transport seam.
type timedTransport struct {
	inner webclient.Transport
	t     *tracer
}

func (tt timedTransport) RoundTrip(ctx context.Context, req *webclient.Request) (*webclient.Response, error) {
	defer tt.t.leaf("webclient.roundtrip")()
	return tt.inner.RoundTrip(ctx, req)
}

// pathRoute names the route a request path belongs to.
func pathRoute(path string) string {
	for r, pattern := range muxPattern {
		if path == pattern {
			return route(r).String()
		}
	}
	return "other"
}

// layerSamples collects samples (durations in µs unless the name says
// otherwise) and counts by name.
type layerSamples struct {
	vals  map[string][]float64
	count map[string]float64
}

func (l *layerSamples) add(name string, d time.Duration) { l.vals[name] = append(l.vals[name], us(d)) }

// tracedPass runs the replay and fills res.PerLayer.
func tracedPass(w *workload, cfg *runConfig, res *result) error {
	t := newTracer()
	ls := &layerSamples{vals: map[string][]float64{}, count: map[string]float64{}}
	dir := filepath.Join(cfg.workDir, "traced")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// Same corpus, same seeding. The request workloads fetch from the
	// origin over loopback; the tracker replay uses websim's in-memory
	// transport, which is what isolates the engine from the sockets.
	var org *origin
	var ports []int
	var transport webclient.Transport = &webclient.HTTPTransport{}
	if w.needOrigin {
		n := w.corpus.hosts
		if w.sweep {
			n = 0
		}
		var err error
		if org, err = startOrigin(originPort, n); err != nil {
			return err
		}
		defer org.stop()
		ports = org.ports
		if w.sweep {
			transport = org.web
		}
	} else {
		ports = []int{originPort}
	}
	c := newCorpus(w.corpus, cfg.seed, ports)
	dataDir := filepath.Join(dir, "data")
	if err := c.seedArchive(dataDir, w.shards); err != nil {
		return err
	}
	var inner snapshot.Store
	var err error
	if w.shards > 1 {
		inner, err = snapshot.NewShardedStore(dataDir, w.shards)
	} else {
		inner, err = snapshot.NewFlatStore(dataDir)
	}
	if err != nil {
		return err
	}
	client := webclient.New(timedTransport{transport, t})
	fac, err := snapshot.NewWithStore(timedStore{inner, t}, client, nil)
	if err != nil {
		return err
	}
	fac.EnablePrewarm(snapshot.DefaultPrewarmWorkers)
	threshold := "Default 1d\n"
	if w.sweep {
		threshold = "Default 0\n"
	}
	thresholds, err := w3config.ParseString(threshold)
	if err != nil {
		return err
	}
	engine := aide.NewServer(fac, client, thresholds, nil)
	served := engine.Handler(snapshot.NewServer(fac))

	if w.needOrigin {
		v := max(w.corpus.revs, 1)
		for u := range c.urls {
			org.set(c.site(u), c.path(u), v, c.body(u, v), false)
		}
	}
	recent := &recentList{}
	if w.sweep {
		if err := tracedSweeps(engine, org, c, recent, dir, ls); err != nil {
			return err
		}
	}

	req := newRequester("http://bench.local", w, c, org, 1)
	req.recent = recent
	allocs := map[string][]float64{}
	bytesAlloc := map[string][]float64{}
	req.handler = http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		name := pathRoute(r.URL.Path)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		d := t.in("handler."+name, func() { served.ServeHTTP(rw, r) })
		runtime.ReadMemStats(&m1)
		ls.add("handler."+name, d)
		ls.add("handler.all", d)
		allocs[name] = append(allocs[name], float64(m1.Mallocs-m0.Mallocs))
		bytesAlloc[name] = append(bytesAlloc[name], float64(m1.TotalAlloc-m0.TotalAlloc))
	})

	sib := &siblings{t: t, ls: ls, c: c, fac: fac, store: inner, client: client, dir: dir, twin: map[int]int{}}
	ops := genOps(w, cfg.seed, tracedOps)
	failed := 0
	for i := range ops {
		o := &ops[i]
		t.op = i
		t.in("op."+kindRoute[o.kind].String(), func() {
			if ok, _ := req.do(0, o); !ok {
				failed++
			}
			if kindRoute[o.kind] == rRemember {
				// The pre-warm a check-in schedules belongs to it.
				t.in("prewarm.wait", fac.WaitPrewarm)
			}
		})
		sib.after(o, req.sent.u, req.sent.a, req.sent.b)
	}
	res.Attempted += len(ops)
	res.Failed += failed
	res.Failures = append(res.Failures, req.failures...)

	// obs: the RED middleware around a handler that does nothing.
	noop := obs.HTTPMiddleware(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}),
		obs.MiddlewareConfig{Registry: obs.NewRegistry(), Tracer: obs.NewTracer(64), Service: "bench"})
	for i := 0; i < 1000; i++ {
		r, _ := http.NewRequest(http.MethodGet, "http://bench.local/co", nil)
		ls.add("obs.middleware", t.in("obs.middleware", func() { noop.ServeHTTP(discardResponse{}, r) }))
	}

	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	if err := t.finish(filepath.Join(cfg.outDir, "trace-"+w.name+".jsonl")); err != nil {
		return err
	}
	layerMetrics(res, t, ls, allocs, bytesAlloc, sib)
	return nil
}

// discardResponse is a ResponseWriter that keeps nothing.
type discardResponse struct{}

func (discardResponse) Header() http.Header         { return http.Header{} }
func (discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (discardResponse) WriteHeader(int)             {}

// tracedSweeps is the tracker part of the replay: it archives every
// page through the engine's own sweep, changes every page and sweeps
// again (so each page has two revisions to read), then times sweeps
// over an unchanged web: the polling engine's cost with no sockets and
// no check-ins.
func tracedSweeps(engine *aide.Server, org *origin, c *corpus, recent *recentList, dir string, ls *layerSamples) error {
	ctx := context.Background()
	for u, pageURL := range c.urls {
		engine.Register(c.user(u), aide.Registration{URL: pageURL, Title: pageURL})
	}
	for v := 1; v <= 2; v++ {
		if v > 1 {
			for u := range c.urls {
				org.set(c.site(u), c.path(u), v, c.body(u, v), false)
			}
		}
		stats := engine.TrackAll(ctx)
		if stats.NewVersions != len(c.urls) || stats.Errors != 0 {
			return fmt.Errorf("sweep %d archived %d of %d pages with %d errors", v, stats.NewVersions, len(c.urls), stats.Errors)
		}
		for u := range c.urls {
			c.noteArchived(u, v, c.body(u, v))
		}
	}
	aged := time.Now().Add(-2 * recentAge)
	for u := range c.urls {
		recent.entries = append(recent.entries, recentEntry{u, aged})
	}
	for i := 0; i < 5; i++ {
		org.web.ResetRequestCounts()
		start := time.Now()
		stats := engine.TrackAll(ctx)
		d := time.Since(start)
		heads, gets := org.web.TotalRequests()
		ls.vals["aide.trackall_urls_per_s"] = append(ls.vals["aide.trackall_urls_per_s"], float64(stats.Checked)/d.Seconds())
		ls.count["aide.origin_requests"] += float64(heads + gets)
		ls.count["aide.checks"] += float64(stats.Checked)
		start = time.Now()
		if err := engine.SaveState(filepath.Join(dir, "aide-state.json")); err != nil {
			return err
		}
		ls.add("aide.savestate", time.Since(start))
	}
	return nil
}

// siblings times the layers that have no seam, on the inputs of the
// operation just replayed.
type siblings struct {
	t      *tracer
	ls     *layerSamples
	c      *corpus
	fac    *snapshot.Facility
	store  snapshot.Store
	client *webclient.Client
	dir    string
	twin   map[int]int // URL → versions checked into its scratch twin

	deltas, checkouts float64
	tokenizedKB       float64
	tokenizeUS        float64
	diffIn, diffOut   float64
	timemapEntries    float64
	timemapUS         float64
	writeSets         []float64
}

func revName(k int) string {
	if k == 0 {
		return ""
	}
	return fmt.Sprintf("1.%d", k)
}

func (s *siblings) time(name string, f func()) time.Duration {
	d := s.t.in(name, f)
	s.ls.add(name, d)
	return d
}

func (s *siblings) after(o *op, u, a, b int) {
	pageURL := s.c.urls[u]
	path := s.store.ArchivePath(pageURL)
	arch := rcs.Open(path, nil)
	switch kindRoute[o.kind] {
	case rCo:
		rev := revName(a)
		s.time("snapshot.facility.checkout", func() { s.fac.Checkout(pageURL, rev) })
		s.time("snapshot.facility.revindex", func() { s.fac.RevisionIndex(pageURL) })
		head := s.c.revCount(u)
		name := "rcs.checkout_old"
		if a == 0 || a == head {
			name = "rcs.checkout_head"
		}
		s.time(name, func() { arch.Checkout(rev) })
		if a == 0 {
			a = head
		}
		s.deltas += float64(deltasApplied(path, a, head))
		s.checkouts++
		// A new modification time makes the parsed-archive cache entry
		// stale: the next checkout reads and parses the file again.
		if fi, err := os.Stat(path); err == nil {
			os.Chtimes(path, time.Now(), fi.ModTime().Add(time.Second))
		}
		s.time("rcs.parse_miss", func() { arch.Checkout(rev) })
	case rHistory:
		s.time("snapshot.facility.history", func() { s.fac.History(s.c.user(u), pageURL) })
		s.time("rcs.log", func() { arch.Log() })
		s.time("rcs.dates", func() { arch.Dates() })
	case rTimemap:
		ms, _ := s.fac.RevisionIndex(pageURL)
		d := s.time("memento.timemap", func() {
			memento.WriteTimeMap(io.Discard, memento.Resolver{Base: "http://bench.local"}, pageURL, ms, 1, memento.DefaultPageSize)
		})
		s.timemapEntries += float64(len(ms))
		s.timemapUS += us(d)
	case rTimegate:
		ms, _ := s.fac.RevisionIndex(pageURL)
		at := revDate(1).Add(time.Duration(o.frac * float64(revDate(max(s.c.spec.revs, 2)).Sub(revDate(1)))))
		// One negotiation is tens of nanoseconds: time a thousand.
		const reps = 1000
		d := s.t.in("memento.negotiate_x1000", func() {
			for i := 0; i < reps; i++ {
				memento.Negotiate(ms, at)
			}
		})
		s.ls.vals["memento.negotiate_ns"] = append(s.ls.vals["memento.negotiate_ns"], float64(d)/reps)
	case rDiff:
		ra, rb := revName(a), revName(b)
		// The request has just rendered this pair, so it is normally
		// cached now; the reversed pair is the same work and normally is
		// not. Either call is filed by what the cache actually did.
		for _, pair := range [][2]string{{ra, rb}, {rb, ra}} {
			cached := false
			d := s.t.in("snapshot.facility.diffstream", func() {
				if ds, err := s.fac.DiffRevsStream(pageURL, pair[0], pair[1]); err == nil {
					cached = ds.Cached
					ds.Render(io.Discard)
				}
			})
			if cached {
				s.ls.add("snapshot.facility.diffstream_hit", d)
			} else {
				s.ls.add("snapshot.facility.diffstream_miss", d)
			}
		}
		oldText, _ := s.fac.Checkout(pageURL, ra)
		newText, _ := s.fac.Checkout(pageURL, rb)
		tok := s.time("htmldoc.tokenize", func() { htmldoc.Tokenize(oldText) })
		tok += s.time("htmldoc.tokenize", func() { htmldoc.Tokenize(newText) })
		s.tokenizeUS += us(tok)
		s.tokenizedKB += float64(len(oldText)+len(newText)) / 1024
		var prep *htmldiff.Prepared
		prepare := s.time("htmldiff.prepare", func() { prep = htmldiff.Prepare(oldText, newText, htmldiff.Options{Title: pageURL}) })
		var out countingWriter
		s.time("htmldiff.render", func() { prep.RenderTo(&out) })
		s.diffIn += float64(len(oldText) + len(newText))
		s.diffOut += float64(out)
		// Alignment is what Prepare does beyond tokenizing both sides.
		s.ls.add("lcs.align", max(prepare-tok, 0))
		oldLines, newLines := textdiff.Lines(oldText), textdiff.Lines(newText)
		var script string
		s.time("textdiff.edscript", func() { script = textdiff.EdScript(newLines, oldLines) })
		s.time("textdiff.applyed", func() { textdiff.ApplyEd(newLines, script) })
	case rRemember:
		ctx := context.Background()
		s.time("webclient.get", func() { s.client.Get(ctx, pageURL) })
		s.time("webclient.check", func() { s.client.Check(ctx, pageURL) })
		// rcs check-in on a scratch copy of the page's archive.
		scratch := filepath.Join(s.dir, "scratch,v")
		if data, err := os.ReadFile(path); err == nil {
			os.WriteFile(scratch, data, 0o644)
		}
		next := s.c.body(u, s.c.revCount(u)+1)
		copyArch := rcs.Open(scratch, nil)
		s.time("rcs.checkin", func() { copyArch.Checkin(next, "bench", "traced") })
		s.time("rcs.checkin_noop", func() { copyArch.Checkin(next, "bench", "traced") })
		block := []byte(strings.Repeat("x", 16<<10))
		s.time("fsatomic.writefile", func() { fsatomic.WriteFile(filepath.Join(s.dir, "scratch.bin"), block, 0o644) })
		// The facility's whole check-in, on a twin of the page so the
		// model's page is left alone.
		twinURL := pageURL + "?twin"
		if s.twin[u] == 0 {
			s.twin[u] = s.c.revCount(u)
			s.fac.RememberContent(ctx, s.c.user(u), twinURL, s.c.body(u, s.twin[u]))
			s.fac.WaitPrewarm()
		}
		s.twin[u]++
		// Listing the data directory around a check-in is slow; a few
		// dozen samples settle a count.
		var before map[string]time.Time
		if len(s.writeSets) < 32 {
			before = fileTimes(s.fac.Root())
		}
		s.time("snapshot.facility.remembercontent", func() {
			s.fac.RememberContent(ctx, s.c.user(u), twinURL, s.c.body(u, s.twin[u]))
		})
		s.fac.WaitPrewarm()
		if before != nil {
			s.writeSets = append(s.writeSets, float64(changedFiles(before, fileTimes(s.fac.Root()))))
		}
	}
}

type countingWriter int

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}

// deltasApplied reads the archive's revision table (RCS admin section,
// plain text) and returns how many ed scripts a checkout of revision
// 1.k applies: the distance down from the nearest full text at or above
// it, which is the head or a revision marked checkpoint.
func deltasApplied(path string, k, head int) int {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	admin, _, _ := strings.Cut(string(data), "\ndesc\n")
	full := map[int]bool{head: true}
	lines := strings.Split(admin, "\n")
	for i := 0; i+1 < len(lines); i++ {
		var n int
		if _, err := fmt.Sscanf(lines[i], "1.%d", &n); err == nil && strings.HasPrefix(lines[i+1], "date\t") &&
			strings.Contains(lines[i+1], "\tcheckpoint;") {
			full[n] = true
		}
	}
	for c := k; c <= head; c++ {
		if full[c] {
			return c - k
		}
	}
	return 0
}

// fileTimes maps each regular file under dir to its modification time.
func fileTimes(dir string) map[string]time.Time {
	out := map[string]time.Time{}
	filepath.Walk(dir, func(p string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			out[p] = fi.ModTime()
		}
		return nil
	})
	return out
}

// changedFiles counts files created or rewritten between two listings.
func changedFiles(before, after map[string]time.Time) int {
	n := 0
	for p, t := range after {
		if old, ok := before[p]; !ok || !old.Equal(t) {
			n++
		}
	}
	return n
}
