package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"
)

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := percentile(xs, 1); got != 5 {
		t.Errorf("max = %v, want 5", got)
	}
	if got := percentile([]float64{0, 10}, 0.95); math.Abs(got-9.5) > 1e-9 {
		t.Errorf("interpolated p95 = %v, want 9.5", got)
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its argument in place")
	}
}

func TestWindowedEstimators(t *testing.T) {
	// Three one-second windows of ten samples each; the middle window
	// holds a hiccup. The windowed p95 is the median window's, so the
	// hiccup costs one window and not the result.
	var at []time.Duration
	var vals []float64
	for w := 0; w < 3; w++ {
		for i := 0; i < 10; i++ {
			at = append(at, time.Duration(w)*time.Second+time.Duration(i)*50*time.Millisecond)
			v := 1.0
			if w == 1 {
				v = 100
			}
			vals = append(vals, v)
		}
	}
	if got := windowedPercentile(at, vals, time.Second, 3, 0.95); got != 1 {
		t.Errorf("windowed p95 = %v, want 1", got)
	}
	if whole := percentile(vals, 0.95); whole != 100 {
		t.Errorf("whole-run p95 = %v, want 100", whole)
	}
	// Samples outside the windows are dropped; rates are per second.
	at = append(at, -time.Millisecond, 3*time.Second)
	if got := windowedRate(at, time.Second, 3); got != 10 {
		t.Errorf("windowed rate = %v, want 10", got)
	}
	if got := windowedRate(at[:5], 500*time.Millisecond, 2); got != 5 {
		t.Errorf("rate over half-second windows = %v, want median(10,0) = 5", got)
	}
}

// TestOpenLoopChargesQueuedRequests drives a stub server that stalls
// once. An open loop must charge the requests that queued behind the
// stall from the time they were due (no coordinated omission), while the
// windowed p95 stays where it was.
func TestOpenLoopChargesQueuedRequests(t *testing.T) {
	const stall = 200 * time.Millisecond
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) == 40 {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	client := srv.Client()

	// 100 requests per second for two seconds on one connection.
	var due []time.Duration
	for i := 0; i < 200; i++ {
		due = append(due, time.Duration(i)*10*time.Millisecond)
	}
	ops := make([]op, len(due))
	samples := openLoop(ops, due, 1, func(int, *op) (bool, bool) {
		resp, err := client.Get(srv.URL)
		if err != nil {
			return false, false
		}
		resp.Body.Close()
		return true, false
	})
	if len(samples) != len(due) {
		t.Fatalf("%d samples for %d arrivals", len(samples), len(due))
	}
	var at []time.Duration
	var lat []float64
	slow := 0
	for _, s := range samples {
		if !s.ok {
			t.Fatal("request failed")
		}
		at = append(at, s.due)
		lat = append(lat, ms(s.lat))
		if s.lat > stall/4 {
			slow++
		}
	}
	// The stalled request and the ~15 due in the following 150 ms.
	if slow < 10 {
		t.Errorf("%d requests charged for the stall, want at least 10: latency is not taken from the due time", slow)
	}
	if whole := percentile(lat, 0.95); whole < ms(stall)/4 {
		t.Errorf("whole-run p95 = %.1f ms, want it to show the stall", whole)
	}
	if p95w := windowedPercentile(at, lat, 250*time.Millisecond, 8, 0.95); p95w > 20 {
		t.Errorf("windowed p95 = %.1f ms, want it unmoved by one stall", p95w)
	}
}

func TestSeedDeterminism(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		hash := func(seed int64) uint64 {
			due := genArrivals(seed, w.rate, 3*time.Second)
			return opseqHash(genOps(w, seed, len(due)), due)
		}
		if hash(1) != hash(1) {
			t.Errorf("%s: the same seed gave two operation sequences", w.name)
		}
		if hash(1) == hash(2) {
			t.Errorf("%s: different seeds gave the same operation sequence", w.name)
		}
	}
	spec := corpusSpec{urls: 8, revs: 2, minKB: 1, maxKB: 4, users: 2, hosts: 1}
	a, b := newCorpus(spec, 7, []int{originPort}), newCorpus(spec, 7, []int{originPort})
	if a.body(3, 2) != b.body(3, 2) {
		t.Error("the same seed gave two page bodies")
	}
	if a.body(3, 2) == newCorpus(spec, 8, []int{originPort}).body(3, 2) {
		t.Error("different seeds gave the same page body")
	}
	// Stratified sizes: every seed holds the same set of page sizes.
	sizes := func(c *corpus) (small, large int) {
		small = 1 << 30
		for u := range c.urls {
			n := len(c.body(u, 1))
			small, large = min(small, n), max(large, n)
		}
		return
	}
	s7, l7 := sizes(a)
	s8, l8 := sizes(newCorpus(spec, 8, []int{originPort}))
	if math.Abs(float64(s7-s8)) > 0.1*float64(s7) || math.Abs(float64(l7-l8)) > 0.1*float64(l7) {
		t.Errorf("page size range moved with the seed: %d..%d vs %d..%d", s7, l7, s8, l8)
	}
}

func TestMetricsDelta(t *testing.T) {
	before := parseMetrics(`# TYPE rcs_cache_hits_total counter
rcs_cache_hits_total 10
rcs_cache_misses_total 10
http_request_duration_bucket{endpoint="/co",le="0.001"} 0
http_request_duration_bucket{endpoint="/co",le="0.005"} 0
http_request_duration_bucket{endpoint="/co",le="+Inf"} 0
`)
	after := parseMetrics(`rcs_cache_hits_total 40
rcs_cache_misses_total 20
snapshot_diffcache_bytes 4096
http_requests_total{endpoint="/co",code="2xx"} 7
http_request_duration_bucket{endpoint="/co",le="0.001"} 50
http_request_duration_bucket{endpoint="/co",le="0.005"} 100
http_request_duration_bucket{endpoint="/co",le="+Inf"} 100
http_request_duration_count{endpoint="/co"} 100
`)
	if got := delta(before, after, "rcs_cache_hits_total"); got != 30 {
		t.Errorf("delta = %v, want 30", got)
	}
	if got := after[`http_requests_total{endpoint="/co",code="2xx"}`]; got != 7 {
		t.Errorf("labelled series = %v, want 7", got)
	}
	if got := ratio(before, after, "rcs_cache_hits_total", "rcs_cache_misses_total"); got != 0.75 {
		t.Errorf("hit ratio over the interval = %v, want 30/(30+10)", got)
	}
	if !math.IsNaN(ratio(after, after, "rcs_cache_hits_total", "rcs_cache_misses_total")) {
		t.Error("a ratio with no traffic should be NaN")
	}
	// Half the interval's requests fell in the first bucket: the median
	// sits at its upper edge; p75 is halfway through the second.
	if got, n := histogramQuantile(before, after, "http_request_duration", `endpoint="/co"`, 0.5); math.Abs(got-0.001) > 1e-12 || n != 100 {
		t.Errorf("p50 = %v over %d, want 0.001 over 100", got, n)
	}
	if got, _ := histogramQuantile(before, after, "http_request_duration", `endpoint="/co"`, 0.75); math.Abs(got-0.003) > 1e-12 {
		t.Errorf("p75 = %v, want 0.003", got)
	}
	pl := metrics{}
	serverLayerMetrics(pl, before, after)
	if pl["rcs.cache.hit_ratio"].Value != 0.75 || pl["snapshot.diffcache.bytes"].Value != 4096 {
		t.Errorf("layer metrics from the delta: %+v", pl)
	}
	if _, ok := pl["snapshot.diffcache.hit_ratio"]; ok {
		t.Error("a ratio with no traffic was reported")
	}
}

func TestInvalidRunRule(t *testing.T) {
	cases := []struct {
		late  time.Duration
		cpu   float64
		valid bool
	}{
		{time.Millisecond, 0.3, true},
		{5 * time.Millisecond, 0.6, true},
		{5*time.Millisecond + time.Microsecond, 0.3, false},
		{time.Millisecond, 0.61, false},
	}
	for _, c := range cases {
		if got := runValid(c.late, c.cpu); got != c.valid {
			t.Errorf("runValid(%v, %v) = %v, want %v", c.late, c.cpu, got, c.valid)
		}
	}
	bad := &report{Results: []*result{{Valid: false, Durable: true}}}
	if bad.exitCode() == 0 {
		t.Error("a report with an invalid run exits 0")
	}
}

func TestCompareReports(t *testing.T) {
	mk := func(p50, store float64) *report {
		return &report{Fingerprint: machine{CPU: "x", NumCPU: 2}, Seed: 1, Seconds: 40, Results: []*result{{
			Workload: "browse_hot", OpseqHash: "abc", Valid: true, Durable: true,
			EndToEnd: metrics{
				"lat_p50_ms":                 {Value: p50, Unit: "ms"},
				"capacity_rps":               {Value: 1000, Unit: "req/s"},
				"store_bytes_per_input_byte": {Value: store, Unit: "ratio"},
			},
		}}}
	}
	var bound float64
	for _, def := range endToEndDefs {
		if def.name == "lat_p50_ms" {
			bound = def.bound
		}
	}
	if d := compareReports(mk(1, 0.3), mk(1+bound/2, 0.3)); len(d) != 0 {
		t.Errorf("worse by half the bound is not a regression, got %v", d)
	}
	if d := compareReports(mk(1, 0.3), mk(1+2*bound, 0.3)); len(d) != 1 {
		t.Errorf("worse by twice the bound should be reported once, got %v", d)
	}
	if d := compareReports(mk(1, 0.3), mk(0.5, 0.3)); len(d) != 0 {
		t.Errorf("better is not a regression, got %v", d)
	}
	if d := compareReports(mk(1, 0.3), mk(1, 0.3001)); len(d) != 1 {
		t.Errorf("an exact count that moved should be reported, got %v", d)
	}
	other := mk(1, 0.3)
	other.Fingerprint.CPU = "y"
	if d := compareReports(mk(1, 0.3), other); len(d) != 1 || d[0][:7] != "machine" {
		t.Errorf("reports from different machines must not be compared, got %v", d)
	}
	slower := mk(1, 0.3)
	slower.Results[0].EndToEnd["capacity_rps"] = metric{Value: 500, Unit: "req/s"}
	if d := compareReports(mk(1, 0.3), slower); len(d) != 1 {
		t.Errorf("a higher-is-better metric that halved should be reported, got %v", d)
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{Name: "parent", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},  // overlaps a
		{Name: "c", Start: 90, End: 120, Parent: 0}, // runs past the parent
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := tr.finish(path); err != nil {
		t.Fatal(err)
	}
	// Children cover [10,50) and [90,100): 50 of the parent's 100.
	if got := tr.spans[0].Self; got != 50 {
		t.Errorf("self time = %d, want 50", got)
	}
	if got := tr.spans[1].Self; got != 20 {
		t.Errorf("a leaf's self time = %d, want its duration", got)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var first span
	if err := json.Unmarshal(data[:bytes.IndexByte(data, '\n')], &first); err != nil || first.Name != "parent" || first.Self != 50 {
		t.Errorf("trace file's first line: %+v, %v", first, err)
	}
}

func TestDeltasApplied(t *testing.T) {
	archive := "head\t1.10;\naccess;\n\n" +
		"1.10\ndate\t1995.10.08.12.00.00;\tauthor a;\tstate Exp;\nnext\t1.9;\n\n" +
		"1.9\ndate\t1995.10.07.12.00.00;\tauthor a;\tstate Exp;\nnext\t1.8;\n\n" +
		"1.8\ndate\t1995.10.06.12.00.00;\tauthor a;\tstate Exp;\tcheckpoint;\nnext\t1.7;\n\n" +
		"1.7\ndate\t1995.10.05.12.00.00;\tauthor a;\tstate Exp;\nnext\t;\n\n" +
		"\ndesc\n@@\n\n1.10\nlog\n@x@\ntext\n@1.8\ndate\tcheckpoint;@\n"
	path := filepath.Join(t.TempDir(), "p,v")
	if err := os.WriteFile(path, []byte(archive), 0o644); err != nil {
		t.Fatal(err)
	}
	for k, want := range map[int]int{10: 0, 9: 1, 8: 0, 7: 1, 3: 5} {
		if got := deltasApplied(path, k, 10); got != want {
			t.Errorf("checkout of 1.%d applies %d deltas, want %d", k, got, want)
		}
	}
}

func TestProcStatCPU(t *testing.T) {
	// utime 250 and stime 50 ticks, behind a command name with a space
	// and a parenthesis.
	stat := "1234 (snap shot) d) S 1 1 1 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 5 0 100 1000 10"
	got, err := parseProcStatCPU(stat)
	if err != nil || got != 3 {
		t.Errorf("cpu seconds = %v, %v; want 3", got, err)
	}
	if _, err := parseProcStatCPU("garbage"); err == nil {
		t.Error("a malformed stat line was accepted")
	}
}

func TestNearestRev(t *testing.T) {
	if got := nearestRev(revDate(3).Add(11*time.Hour), 8); got != 3 {
		t.Errorf("11h after revision 3: nearest = %d, want 3", got)
	}
	if got := nearestRev(revDate(3).Add(13*time.Hour), 8); got != 4 {
		t.Errorf("13h after revision 3: nearest = %d, want 4", got)
	}
	if got := nearestRev(revDate(3).Add(12*time.Hour), 8); got != 3 {
		t.Errorf("a tie goes to the earlier revision, got %d", got)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the driver's own tables the
// same list: the file is what the harness gates on, the tables are what
// the driver reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside the bench directory")
	}
	var onDisk, want any
	if err := json.Unmarshal(data, &onDisk); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(benchmarkJSON(), &want); err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(onDisk)
	b, _ := json.Marshal(want)
	if string(a) != string(b) {
		t.Errorf("BENCHMARK.json differs from the driver's tables; regenerate it with: go run . -print-benchmark-json\n have %s\n want %s", a, b)
	}
}
