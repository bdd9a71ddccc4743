package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is how many samples the value summarises (0 for a reading).
	N int `json:"n,omitempty"`
}

// result is everything one workload run reports.
type result struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Valid     bool     `json:"valid"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Durable   bool     `json:"durable"`
	Failures  []string `json:"failures,omitempty"`
	EndToEnd  metrics  `json:"end_to_end"`
	PerLayer  metrics  `json:"per_layer,omitempty"`
	OpseqHash string   `json:"opseq_hash"`
}

// runConfig is what the command line fixes for a run.
type runConfig struct {
	seed      int64
	seconds   int // measured time: open loop, then closed loop for a quarter of it
	setups    int // times the set-up is repeated; setup_s is their median
	snapshotd string
	workDir   string
	outDir    string
	logf      func(format string, args ...any)
}

const (
	setupRepeats = 3 // setup_s is the median of this many set-ups
	warmup       = 2 * time.Second
	closedRamp   = 2 * time.Second // head of the closed loop left out of capacity_rps
	window       = time.Second
	serverPort   = 21080
	originPort   = 21090
)

// phases splits the measured seconds: the closed loop gets a quarter
// of a long run and a third of a short one (at least six windows, or
// the median over windows is of too few), the open loop the rest. The
// tracker workload has no closed loop.
func phases(w *workload, seconds int) (open, closed int) {
	if w.sweep {
		return seconds, 0
	}
	closed = max(seconds/4, min(6, seconds/3))
	return seconds - closed, closed
}

// env is one set-up: origin, corpus, seeded data directory and a
// running snapshotd.
type env struct {
	w    *workload
	org  *origin
	c    *corpus
	srv  *server
	dir  string
	log  string
	bin  string
	port int

	// Tracker workload bookkeeping, fed by the origin's GET callback.
	recent  *recentList
	keyURL  map[string]int
	fetched atomic.Int64 // URLs fetched at least once
}

func (e *env) args(extra ...string) []string {
	a := append([]string{}, extra...)
	if e.w.shards > 1 {
		a = append(a, "-shards", strconv.Itoa(e.w.shards))
	}
	return a
}

// setUp builds everything a run needs, from nothing: origin listeners,
// the generated corpus, its revisions checked in through the facility,
// and snapshotd started on the result. Its duration is setup_s.
func setUp(w *workload, cfg *runConfig, n int) (*env, error) {
	e := &env{w: w, bin: cfg.snapshotd, recent: &recentList{}, keyURL: map[string]int{}}
	ok := false
	defer func() {
		if !ok {
			e.tearDown()
		}
	}()
	ports := []int{originPort}
	if w.needOrigin {
		org, err := startOrigin(originPort, w.corpus.hosts)
		if err != nil {
			return nil, err
		}
		e.org = org
		ports = org.ports
	}
	e.c = newCorpus(w.corpus, cfg.seed, ports)
	e.dir = filepath.Join(cfg.workDir, fmt.Sprintf("data-%d", n))
	e.log = filepath.Join(cfg.workDir, fmt.Sprintf("snapshotd-%d.log", n))
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return nil, err
	}
	if err := e.c.seedArchive(e.dir, w.shards); err != nil {
		return nil, err
	}
	if w.needOrigin {
		// The origin serves what the archive holds as head; on the
		// tracker workload, where nothing is seeded, version 1.
		v := max(w.corpus.revs, 1)
		for u := range e.c.urls {
			e.keyURL["/"+e.c.site(u)+e.c.path(u)] = u
			e.org.set(e.c.site(u), e.c.path(u), v, e.c.body(u, v), false)
		}
	}
	var err error
	if e.port, err = freePort(serverPort); err != nil {
		return nil, err
	}
	var extra []string
	if w.sweep {
		// Thresholds off: every sweep checks every page.
		cfgPath := filepath.Join(cfg.workDir, "w3newer.cfg")
		if err := os.WriteFile(cfgPath, []byte("Default 0\n"), 0o644); err != nil {
			return nil, err
		}
		extra = []string{"-config", cfgPath}
		e.org.onGet = e.noteFetch
	}
	if e.srv, err = startServer(e.bin, e.dir, e.log, e.port, e.args(append(extra, w.args...)...)...); err != nil {
		return nil, err
	}
	if w.sweep {
		for u, pageURL := range e.c.urls {
			q := "/register?user=" + url.QueryEscape(e.c.user(u)) + "&url=" + url.QueryEscape(pageURL) + "&title=" + strconv.Itoa(u)
			resp, err := http.Get(e.srv.base + q)
			if err != nil {
				return nil, fmt.Errorf("registering %s: %v", pageURL, err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return nil, fmt.Errorf("registering %s: HTTP %d", pageURL, resp.StatusCode)
			}
		}
	}
	ok = true
	return e, nil
}

// noteFetch records, on the tracker workload, that the origin served
// version v of a page to snapshotd: the tracker checks in what it
// fetches, so this is the model's next revision. A page changed between
// the tracker's HEAD and GET is fetched again next sweep with the same
// content, which archives nothing.
func (e *env) noteFetch(key string, v int) {
	u, ok := e.keyURL[key]
	if !ok {
		return
	}
	n := e.c.revCount(u)
	if n > 0 {
		if last, _, _ := e.c.rev(u, n); last == v {
			return
		}
	}
	e.c.noteArchived(u, v, e.c.body(u, v))
	if n == 0 {
		e.fetched.Add(1)
	} else {
		e.recent.add(u)
	}
}

func (e *env) tearDown() {
	if e.srv != nil {
		e.srv.stop()
		e.srv = nil
	}
	if e.org != nil {
		e.org.stop()
		e.org = nil
	}
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}

// scrape reads snapshotd's /metrics on a connection of its own.
func scrape(base string) map[string]float64 {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil
	}
	return parseMetrics(string(data))
}

// reading is the server- and driver-side state sampled at the edges of
// the measured open-loop interval.
type reading struct {
	at        time.Time
	serverCPU float64
	driverCPU float64
	metrics   map[string]float64
}

func takeReading(srv *server) reading {
	cpu, _ := srv.cpuSeconds()
	return reading{at: time.Now(), serverCPU: cpu, driverCPU: selfCPUSeconds(), metrics: scrape(srv.base)}
}

// raw is what one run observed, before it is summarised.
type raw struct {
	setups               []float64
	openSecs, closedSecs int
	hash                 uint64
	arrivals             int
	open, closed         []sample
	before, after        reading // edges of the measured open-loop interval
	checkAt, lag         []time.Duration
	rssMB                float64
	storedBytes          int64
	inputBytes           int64
	bytesPerRev          float64
	revs                 int
	hops                 int
	durable              bool
	failures             []string
}

// runWorkload sets up, measures and checks one workload.
func runWorkload(w *workload, cfg *runConfig) (*result, error) {
	r, err := measure(w, cfg)
	if err != nil {
		return nil, err
	}
	return summarise(w, cfg, r), nil
}

// measure runs the phases: set-up (several times), warm-up and open
// loop, closed loop, shutdown, restart and read-back.
func measure(w *workload, cfg *runConfig) (*raw, error) {
	r := &raw{durable: true}
	workers := runtime.NumCPU()
	r.openSecs, r.closedSecs = phases(w, cfg.seconds)

	// Whatever ran before (a build, the previous run's check-ins and the
	// removal of its data) may have left dirty pages behind; writing them
	// out now keeps that I/O out of this run's fsyncs.
	syscall.Sync()

	// Set up several times and report the median: one set-up is a
	// single sample of fsync and process-start luck.
	var e *env
	for i := 0; i < cfg.setups; i++ {
		if e != nil {
			e.tearDown()
		}
		t0 := time.Now()
		var err error
		if e, err = setUp(w, cfg, i); err != nil {
			return nil, err
		}
		r.setups = append(r.setups, time.Since(t0).Seconds())
	}
	defer func() { e.tearDown() }()
	cfg.logf("%s: set up in %.3f s, median %.3fs", w.name, r.setups, median(r.setups))

	horizon := warmup + time.Duration(r.openSecs)*time.Second
	due := genArrivals(cfg.seed, w.rate, horizon)
	// Enough operations for the open loop and a closed loop running at
	// several times its rate; the closed loop wraps if it outruns them.
	ops := genOps(w, cfg.seed, len(due)+int(w.rate)*8*max(r.closedSecs, 1))
	r.hash, r.arrivals = opseqHash(ops[:len(due)], due), len(due)
	req := newRequester(e.srv.base, w, e.c, e.org, workers)
	req.recent = e.recent
	defer req.close()

	var stopChanges func()
	if w.sweep {
		// Settle: the first sweeps archive every registered page.
		if !waitFor(60*time.Second, func() bool { return int(e.fetched.Load()) == len(e.c.urls) }) {
			return nil, fmt.Errorf("tracker did not fetch every page")
		}
		stopChanges = startChanger(e, cfg.seed, w.changeRate)
		if !waitFor(30*time.Second, func() bool { return e.recent.ready() >= 20 }) {
			stopChanges()
			return nil, fmt.Errorf("tracker is not picking up changes")
		}
	} else {
		r.hops = timegateHops(e.srv.base, e.c.urls[0])
	}

	// Open loop: warm-up and measured interval are one schedule; the
	// readings at the boundary separate them.
	var side sync.WaitGroup
	side.Add(1)
	go func() {
		defer side.Done()
		time.Sleep(warmup)
		r.before = takeReading(e.srv)
	}()
	r.open = openLoop(ops, due, workers, req.do)
	r.after = takeReading(e.srv)
	side.Wait()
	if r.closedSecs > 0 {
		// The open loop performs a fixed operation sequence, so what the
		// store holds at its end is a count; the closed loop runs for a
		// time and adds a varying number of check-ins.
		if err := r.storage(e); err != nil {
			return nil, err
		}
		r.closed = closedLoop(ops, len(due), workers, time.Duration(r.closedSecs)*time.Second, req.do)
	}
	if w.sweep {
		stopChanges()
		r.checkAt, r.lag = e.org.checksSince(r.before.at)
		// Quiesce: every change made has been fetched, and the check-in
		// behind the last fetch has had time to commit.
		if !waitFor(30*time.Second, func() bool { return e.org.pendingCount() == 0 }) {
			req.fail("tracker left %d changed pages unfetched", e.org.pendingCount())
			r.durable = false
		}
		time.Sleep(2 * recentAge)
		if err := r.storage(e); err != nil {
			return nil, err
		}
	}
	r.rssMB, _ = e.srv.rssPeakMB()
	e.srv.stop()

	// Restart on the same directory and read back everything the model
	// says was acknowledged.
	if w.needOrigin {
		var err error
		if e.srv, err = startServer(e.bin, e.dir, e.log, e.port, e.args("-sweep", "0")...); err != nil {
			return nil, fmt.Errorf("restarting snapshotd: %v", err)
		}
		req.base = e.srv.base
		all := make([]int, len(e.c.urls))
		for u := range all {
			all[u] = u
		}
		checked, ok := req.verifyDurable(all, w.corpus.revs+1)
		r.durable = r.durable && ok
		cfg.logf("%s: restart check read back %d acknowledged check-ins, ok=%v", w.name, checked, ok)
	}
	r.failures = req.failures
	return r, nil
}

// storage reads what the store holds against what was checked in. No
// request is in flight when it is called.
func (r *raw) storage(e *env) error {
	total, archives, err := dirBytes(e.dir)
	if err != nil {
		return err
	}
	r.storedBytes = total
	e.c.mu.Lock()
	r.inputBytes = e.c.inputBytes
	for _, revs := range e.c.revLen {
		r.revs += len(revs)
	}
	e.c.mu.Unlock()
	if r.revs > 0 {
		r.bytesPerRev = float64(archives) / float64(r.revs)
	}
	return nil
}

// metrics is a set of reported numbers.
type metrics map[string]metric

// put records a value, unless there was nothing to compute it from.
func (m metrics) put(name string, v float64, unit string, n int) {
	if !math.IsNaN(v) && !math.IsInf(v, 0) {
		m[name] = metric{v, unit, n}
	}
}

// summarise turns a run's observations into its metrics.
func summarise(w *workload, cfg *runConfig, r *raw) *result {
	res := &result{
		Workload: w.name, Seed: cfg.seed, Durable: r.durable, Failures: r.failures,
		OpseqHash: fmt.Sprintf("%016x", r.hash), EndToEnd: metrics{}, PerLayer: metrics{},
	}
	// Open-loop samples due after the warm-up, re-based to its end.
	var at []time.Duration
	var lat, late, fresh []float64
	byRoute := map[route][]float64{}
	measured := 0
	for _, s := range r.open {
		if s.due < warmup {
			continue
		}
		measured++
		late = append(late, ms(s.late))
		if !s.ok {
			continue
		}
		at = append(at, s.due-warmup)
		lat = append(lat, ms(s.lat))
		byRoute[s.route] = append(byRoute[s.route], ms(s.lat))
		if s.fresh {
			fresh = append(fresh, ms(s.lat))
		}
	}
	var all []float64
	for _, s := range append(append([]sample{}, r.open...), r.closed...) {
		res.Attempted++
		if !s.ok {
			res.Failed++
		}
		all = append(all, ms(s.lat))
	}
	if !res.Durable {
		res.Failed++
	}

	e2e := res.EndToEnd
	e2e.put("setup_s", median(r.setups), "s", len(r.setups))
	e2e.put("lat_p50_ms", median(lat), "ms", len(lat))
	e2e.put("lat_p95w_ms", windowedPercentile(at, lat, window, r.openSecs, 0.95), "ms", len(lat))
	for _, rt := range []route{rCo, rDiff, rHistory, rTimegate} {
		e2e.put(rt.String()+"_p50_ms", median(byRoute[rt]), "ms", len(byRoute[rt]))
	}
	e2e.put("remember_p50_ms", median(fresh), "ms", len(fresh))
	opsDone := float64(measured)
	if w.sweep {
		rate := windowedRate(r.checkAt, window, r.openSecs)
		e2e.put("sweep_checks_per_s", rate, "1/s", len(r.checkAt))
		// The tracker's capacity is the rate it gets round its pages.
		e2e.put("capacity_rps", rate, "req/s", len(r.checkAt))
		lagMs := make([]float64, len(r.lag))
		for i, d := range r.lag {
			lagMs[i] = ms(d)
		}
		e2e.put("detect_lag_p50_ms", median(lagMs), "ms", len(lagMs))
		opsDone = float64(len(r.checkAt))
	} else {
		// The first windows after the switch from a part-idle open loop
		// to saturation are a ramp (clocks, caches, connection state).
		var doneAt []time.Duration
		for _, s := range r.closed {
			if t := s.due + s.lat - closedRamp; s.ok && t >= 0 {
				doneAt = append(doneAt, t)
			}
		}
		e2e.put("capacity_rps", windowedRate(doneAt, window, r.closedSecs-int(closedRamp/window)), "req/s", len(doneAt))
	}
	e2e.put("cpu_ms_per_op", (r.after.serverCPU-r.before.serverCPU)*1000/opsDone, "ms", int(opsDone))
	e2e.put("fail_ratio", float64(res.Failed)/float64(res.Attempted), "ratio", res.Attempted)
	e2e.put("store_bytes_per_input_byte", float64(r.storedBytes)/float64(r.inputBytes), "ratio", 0)
	e2e.put("rss_peak_mb", r.rssMB, "MB", 0)

	cpuShare := (r.after.driverCPU - r.before.driverCPU) / r.after.at.Sub(r.before.at).Seconds()
	lateP99 := percentile(late, 0.99)
	pl := res.PerLayer
	pl.put("loadgen.late_p99_ms", lateP99, "ms", len(late))
	pl.put("loadgen.late_max_ms", percentile(late, 1), "ms", len(late))
	pl.put("loadgen.cpu_share", cpuShare, "cores", 0)
	pl.put("loadgen.p99_ms", percentile(all, 0.99), "ms", len(all))
	pl.put("loadgen.max_ms", percentile(all, 1), "ms", len(all))
	// The low 48 bits: exact in a float64.
	pl.put("loadgen.opseq_hash", float64(r.hash&(1<<48-1)), "hash", r.arrivals)
	// On the tracker workload the driver is also the origin web, whose
	// CPU grows with the sweep rate; only the generator's lateness can
	// disqualify that run.
	genCPU := cpuShare
	if w.sweep {
		genCPU = 0
	}
	res.Valid = runValid(time.Duration(lateP99*float64(time.Millisecond)), genCPU)
	serverLayerMetrics(pl, r.before.metrics, r.after.metrics)
	if r.before.metrics != nil && !w.sweep {
		// The share of requests that read and parsed a ,v file. The hit
		// ratio counts every open, and a request may open its archive
		// more than once; this counts requests.
		pl.put("rcs.cache.misses_per_request", delta(r.before.metrics, r.after.metrics, "rcs_cache_misses_total")/opsDone, "ratio", int(opsDone))
	}
	if r.revs > 0 {
		pl.put("rcs.archive_bytes_per_rev", r.bytesPerRev, "B", r.revs)
	}
	if r.hops > 0 {
		pl.put("memento.timegate_hops", float64(r.hops), "count", 1)
	}
	return res
}

// timegateHops follows a TimeGate answer to the archived page and
// counts the requests it takes to reach the 200.
func timegateHops(base, pageURL string) int {
	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }}
	defer client.CloseIdleConnections()
	next := base + "/timegate?url=" + url.QueryEscape(pageURL)
	for hops := 1; hops <= 10; hops++ {
		resp, err := client.Get(next)
		if err != nil {
			return 0
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return hops
		}
		loc, err := resp.Location()
		if err != nil {
			return 0
		}
		next = loc.String()
	}
	return 0
}

// waitFor polls cond until it holds or the limit passes.
func waitFor(limit time.Duration, cond func() bool) bool {
	for deadline := time.Now().Add(limit); !cond(); {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(10 * time.Millisecond)
	}
	return true
}

// startChanger publishes a new version of a seeded random page `rate`
// times per second until the returned stop function is called.
func startChanger(e *env, seed int64, rate float64) (stop func()) {
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		rng := rand.New(rand.NewSource(seed ^ 0x63686e67)) // "chng"
		start := time.Now()
		t := 0.0
		version := make([]int, len(e.c.urls))
		for {
			t += rng.ExpFloat64() / rate
			wait := time.Duration(t*float64(time.Second)) - time.Since(start)
			select {
			case <-quit:
				return
			case <-time.After(max(wait, 0)):
			}
			u := rng.Intn(len(e.c.urls))
			if version[u] == 0 {
				version[u] = 1
			}
			version[u]++
			e.org.set(e.c.site(u), e.c.path(u), version[u], e.c.body(u, version[u]), true)
		}
	}()
	return func() { close(quit); <-done }
}

// sortedKeys returns a metric map's names in order.
func sortedKeys(m metrics) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
