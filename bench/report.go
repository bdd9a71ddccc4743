package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// metricDef names an end-to-end metric, its direction and the share of
// the baseline by which it may worsen before that counts as a
// regression. BENCHMARK.json lists the same table.
type metricDef struct {
	name, unit string
	higher     bool    // better when higher
	bound      float64 // relative worsening allowed
	// exact marks a count: with one seed and no timers it repeats
	// exactly, and the A/A check demands equality on the workloads whose
	// archives only the driver writes.
	exact bool
	// everywhere marks the metrics every workload produces; only these
	// can sit in BENCHMARK.json, whose list is one for all workloads.
	everywhere bool
}

var endToEndDefs = []metricDef{
	{name: "setup_s", unit: "s", bound: 0.25, everywhere: true},
	{name: "lat_p50_ms", unit: "ms", bound: 0.20, everywhere: true},
	{name: "lat_p95w_ms", unit: "ms", bound: 0.25, everywhere: true},
	{name: "capacity_rps", unit: "req/s", higher: true, bound: 0.20, everywhere: true},
	{name: "cpu_ms_per_op", unit: "ms", bound: 0.20, everywhere: true},
	{name: "co_p50_ms", unit: "ms", bound: 0.20, everywhere: true},
	{name: "diff_p50_ms", unit: "ms", bound: 0.20, everywhere: true},
	{name: "history_p50_ms", unit: "ms", bound: 0.20, everywhere: true},
	{name: "timegate_p50_ms", unit: "ms", bound: 0.20, everywhere: true},
	{name: "store_bytes_per_input_byte", unit: "ratio", bound: 0.05, exact: true, everywhere: true},
	{name: "rss_peak_mb", unit: "MB", bound: 0.10, everywhere: true},
	{name: "remember_p50_ms", unit: "ms", bound: 0.20},
	{name: "sweep_checks_per_s", unit: "1/s", higher: true, bound: 0.20},
	{name: "detect_lag_p50_ms", unit: "ms", bound: 0.20},
	{name: "fail_ratio", unit: "ratio", bound: 0, exact: true},
}

// exactLayerCounts are the traced pass's counts: one goroutine and one
// seed, so two runs of the same code must agree on them exactly.
var exactLayerCounts = []string{
	"loadgen.opseq_hash", "snapshot.archive_opens_per_co", "rcs.deltas_applied_per_checkout",
	"fsatomic.writes_per_checkin", "webclient.transport_calls_per_op", "aide.origin_requests_per_check",
	"store.calls_per_op.ArchivePath", "store.calls_per_op.UserPath", "store.calls_per_op.LockKey",
	"store.calls_per_op.ShardOf", "store.calls_per_op.NoteURL", "store.calls_per_op.Place",
}

// report is one run of the set, as written under bench-out/.
type report struct {
	Fingerprint machine   `json:"fingerprint"`
	Seed        int64     `json:"seed"`
	Seconds     int       `json:"seconds"`
	Results     []*result `json:"results"`
}

// exitCode is 1 when any workload failed a check or its run is invalid.
func (r *report) exitCode() int {
	for _, res := range r.Results {
		if res.Failed > 0 || !res.Durable || !res.Valid {
			return 1
		}
	}
	return 0
}

// machine identifies where numbers were taken; numbers from different
// machines are not compared.
type machine struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
}

func fingerprint() machine {
	m := machine{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				m.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		m.Kernel = strings.TrimSpace(string(data))
	}
	return m
}

// compareReports lists every end-to-end metric of b that is worse than
// a's by more than its bound, and every exact count that differs. It
// refuses reports from different machines or with different inputs.
func compareReports(a, b *report) []string {
	if a.Fingerprint != b.Fingerprint {
		return []string{fmt.Sprintf("machine fingerprints differ, refusing to compare: %+v vs %+v", a.Fingerprint, b.Fingerprint)}
	}
	if a.Seed != b.Seed || a.Seconds != b.Seconds {
		return []string{fmt.Sprintf("inputs differ, refusing to compare: seed %d/%d, seconds %d/%d", a.Seed, b.Seed, a.Seconds, b.Seconds)}
	}
	var out []string
	for _, ra := range a.Results {
		var rb *result
		for _, r := range b.Results {
			if r.Workload == ra.Workload {
				rb = r
			}
		}
		if rb == nil {
			out = append(out, ra.Workload+": missing from the second report")
			continue
		}
		if ra.OpseqHash != rb.OpseqHash {
			out = append(out, fmt.Sprintf("%s: operation sequences differ (%s vs %s)", ra.Workload, ra.OpseqHash, rb.OpseqHash))
		}
		w := findWorkload(ra.Workload)
		sweep := w != nil && w.sweep
		for _, def := range endToEndDefs {
			ma, okA := ra.EndToEnd[def.name]
			mb, okB := rb.EndToEnd[def.name]
			if okA != okB {
				out = append(out, fmt.Sprintf("%s %s: reported by only one side", ra.Workload, def.name))
			}
			if !okA || !okB {
				continue
			}
			// The tracker archives on its own timers, so its counts vary.
			if def.exact && !sweep {
				if ma.Value != mb.Value {
					out = append(out, fmt.Sprintf("%s %s: count changed %v -> %v", ra.Workload, def.name, ma.Value, mb.Value))
				}
				continue
			}
			if w := worsening(def, ma.Value, mb.Value); w > def.bound {
				out = append(out, fmt.Sprintf("%s %s: %.6g -> %.6g %s, worse by %.1f%% (bound %.0f%%)",
					ra.Workload, def.name, ma.Value, mb.Value, def.unit, 100*w, 100*def.bound))
			}
		}
		for _, name := range exactLayerCounts {
			ma, okA := ra.PerLayer[name]
			mb, okB := rb.PerLayer[name]
			if okA && okB && ma.Value != mb.Value {
				out = append(out, fmt.Sprintf("%s %s: count changed %v -> %v", ra.Workload, name, ma.Value, mb.Value))
			}
		}
	}
	return out
}

// worsening is how much worse b is than a, as a share of a.
func worsening(def metricDef, a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return 1
	}
	if def.higher {
		return (a - b) / a
	}
	return (b - a) / a
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &r, nil
}

// compareFiles is the -compare mode.
func compareFiles(pathA, pathB string) int {
	a, err := readReport(pathA)
	if err != nil {
		fatal(err)
	}
	b, err := readReport(pathB)
	if err != nil {
		fatal(err)
	}
	diffs := compareReports(a, b)
	for _, d := range diffs {
		fmt.Println(d)
	}
	if len(diffs) > 0 {
		return 1
	}
	fmt.Println("no end-to-end metric worse than its bound")
	return 0
}

// runSeconds is the measured time per run the harness is told to ask
// for: fourteen open-loop windows and six closed-loop ones.
const runSeconds = 20

// benchmarkJSON renders the driver's tables as BENCHMARK.json.
func benchmarkJSON() []byte {
	type named struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []named  `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, named{w.name, w.why})
	}
	better := func(higher bool) string {
		if higher {
			return "higher"
		}
		return "lower"
	}
	for _, d := range endToEndDefs {
		if d.everywhere {
			doc.EndToEnd = append(doc.EndToEnd, e2e{d.name, d.unit, better(d.higher), d.bound})
		}
	}
	for _, d := range perLayerDefs {
		doc.PerLayer = append(doc.PerLayer, layer{d.name, d.unit, better(d.higher)})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // a bug: the tables are static
	}
	return append(data, '\n')
}
