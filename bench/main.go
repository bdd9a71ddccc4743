// Command bench is the repository's benchmark: one driver process that
// seeds a corpus, serves the origin web, spawns the real snapshotd as a
// separate process, drives it over nproc keep-alive connections on an
// open-loop schedule, and checks every response against what the
// generators say the answer must be. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

func main() {
	var (
		name      = flag.String("workload", "", "run one workload (default: all four)")
		seed      = flag.Int64("seed", 1, "seed for corpus, operation sequence and arrival schedule")
		seconds   = flag.Int("seconds", 40, "measured seconds per workload: open loop, then closed loop for a quarter of it")
		trace     = flag.Int("trace", -1, "1: traced pass, report per-layer metrics; 0: end-to-end only; default: both")
		snapshotd = flag.String("snapshotd", "", "snapshotd binary (default: build ./cmd/snapshotd)")
		outDir    = flag.String("out", "", "output directory (default: bench-out at the repository root)")
		aa        = flag.Bool("aa", false, "run the whole set twice and fail unless the second agrees with the first within the bounds")
		compare   = flag.Bool("compare", false, "compare two result files given as arguments, exit 1 on a regression")
		printJSON = flag.Bool("print-benchmark-json", false, "print BENCHMARK.json as the driver's tables define it, and exit")
	)
	flag.Parse()
	if *printJSON {
		os.Stdout.Write(benchmarkJSON())
		return
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	}

	root, err := repoRoot()
	if err != nil {
		fatal(err)
	}
	if *outDir == "" {
		*outDir = filepath.Join(root, "bench-out")
	}
	work := filepath.Join(*outDir, fmt.Sprintf("work-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fatal(err)
	}
	if *snapshotd == "" {
		*snapshotd = filepath.Join(*outDir, "bin", "snapshotd")
		if err := buildSnapshotd(root, *snapshotd); err != nil {
			fatal(err)
		}
	}
	cfg := &runConfig{
		seed: *seed, seconds: *seconds, setups: setupRepeats, snapshotd: *snapshotd, workDir: work, outDir: *outDir,
		logf: func(format string, args ...any) { fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...) },
	}
	var set []*workload
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		set = []*workload{w}
	} else {
		for i := range workloads {
			set = append(set, &workloads[i])
		}
	}

	runSet := func() *report {
		rep := &report{Fingerprint: fingerprint(), Seed: *seed, Seconds: *seconds}
		for _, w := range set {
			res, err := runBoth(w, cfg, *trace)
			// An invalid run is not reported. When a whole set is being
			// measured there is time to take it again; a single-workload
			// caller decides that for itself.
			for try := 1; err == nil && !res.Valid && *name == "" && try < 3; try++ {
				cfg.logf("%s: run invalid (late_p99 %.2f ms, driver CPU %.2f cores), measuring again",
					w.name, res.PerLayer["loadgen.late_p99_ms"].Value, res.PerLayer["loadgen.cpu_share"].Value)
				res, err = runBoth(w, cfg, *trace)
			}
			if err != nil {
				os.RemoveAll(work)
				fatal(fmt.Errorf("%s: %v", w.name, err))
			}
			rep.Results = append(rep.Results, res)
			printResult(res)
		}
		return rep
	}

	first := runSet()
	path, err := first.write(*outDir)
	if err != nil {
		fatal(err)
	}
	cfg.logf("wrote %s", path)
	code := first.exitCode()
	if *aa {
		second := runSet()
		if path, err = second.write(*outDir); err != nil {
			fatal(err)
		}
		cfg.logf("wrote %s", path)
		diffs := compareReports(first, second)
		for _, d := range diffs {
			fmt.Println("A/A:", d)
		}
		if len(diffs) > 0 || second.exitCode() != 0 {
			code = 1
		}
	}
	if *name != "" {
		// The last line of standard output is the machine-readable
		// result of a single-workload run; it carries the verdict
		// (correct, failed), so the exit code only says a result exists.
		if !first.Results[0].Valid {
			cfg.logf("%s: generator lateness or driver CPU over the limit: this run's latencies say more about the box than about snapshotd", *name)
		}
		fmt.Println(contractLine(first.Results[0], *trace == 1))
		if !*aa {
			code = 0
		}
	}
	os.RemoveAll(work)
	os.Exit(code)
}

// runBoth measures a workload with tracing off and, unless trace is 0,
// follows it with the traced pass. With trace 1 only the per-layer
// metrics are wanted, so the set-up is not repeated.
func runBoth(w *workload, cfg *runConfig, trace int) (*result, error) {
	c := *cfg
	if trace == 1 {
		c.setups = 1
	}
	res, err := runWorkload(w, &c)
	if err != nil || trace == 0 {
		return res, err
	}
	if err := tracedPass(w, &c, res); err != nil {
		return nil, fmt.Errorf("traced pass: %v", err)
	}
	return res, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// repoRoot finds the repository this module sits in: the nearest parent
// of the working directory whose go.mod declares module aide.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module aide\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("not inside the aide repository (no go.mod declaring module aide above the working directory)")
		}
		dir = parent
	}
}

// printResult writes one line per metric: workload metric value unit n.
func printResult(res *result) {
	line := func(name string, m metric) {
		fmt.Printf("%-14s %-40s %14.6g %-6s n=%d\n", res.Workload, name, m.Value, m.Unit, m.N)
	}
	for _, name := range sortedKeys(res.EndToEnd) {
		line(name, res.EndToEnd[name])
	}
	for _, name := range sortedKeys(res.PerLayer) {
		line(name, res.PerLayer[name])
	}
	status := "valid"
	if !res.Valid {
		status = "INVALID (generator lateness or driver CPU over the limit): latencies above are not to be used"
	}
	fmt.Printf("%-14s attempted=%d failed=%d durable=%v opseq=%s %s\n", res.Workload, res.Attempted, res.Failed, res.Durable, res.OpseqHash, status)
	for _, f := range res.Failures {
		fmt.Printf("%-14s FAILURE %s\n", res.Workload, f)
	}
}

// contractLine renders a single-workload result as the one JSON object
// the benchmark contract asks for: the end-to-end metrics every
// workload reports with tracing off, the per-layer metrics with it on.
func contractLine(res *result, traced bool) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: res.Failed == 0 && res.Durable, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]value{}}
	if traced {
		for _, def := range perLayerDefs {
			// A layer the workload does not exercise reads zero.
			out.Metrics[def.name] = value{res.PerLayer[def.name].Value, def.unit}
		}
	} else {
		for _, def := range endToEndDefs {
			if def.everywhere {
				out.Metrics[def.name] = value{res.EndToEnd[def.name].Value, def.unit}
			}
		}
	}
	data, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	return string(data)
}

// write stores the report as JSON under dir.
func (r *report) write(dir string) (string, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("result-%s-%d.json", time.Now().UTC().Format("20060102T150405.000"), os.Getpid()))
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}
