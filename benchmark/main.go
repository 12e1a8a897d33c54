// Command benchmark is the repository's measuring stick: five fixed
// workloads stood up in-process (real impir.Servers on loopback TCP,
// driven through the public Store API), every answer verified against
// the benchmark's own copy of the data. See README.md in this directory
// and BENCHMARK.json at the repository root.
//
//	go run ./benchmark --workload scan_large --seed 1 --seconds 10 --trace 0
//	go run ./benchmark                      # every workload, both modes → benchmark/out/result.json
//	go run ./benchmark -compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metric is one named value as printed.
type metric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Spread float64 `json:"spread,omitempty"` // IQR over the measured rounds (end-to-end metrics)
}

// result is one run of one workload in one mode; its JSON form is the
// last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "run one workload (default: all, both modes)")
		seed    = flag.Uint64("seed", 1, "input seed: database bytes, key corpora, index streams, arrival schedule")
		seconds = flag.Int("seconds", 15, "measured seconds per run (BENCHMARK.json's run_seconds; the driver passes it)")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from the ladder, counters and probes")
		out     = flag.String("out", filepath.Join("benchmark", "out"), "directory for trace and result files")
		compare = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *out, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds, trace int, out string, compare bool, args []string) error {
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles("BENCHMARK.json", args[0], args[1])
	}
	if len(args) != 0 {
		return fmt.Errorf("unexpected arguments %q", args)
	}
	if seconds < 1 || trace < 0 || trace > 1 {
		return fmt.Errorf("need -seconds ≥ 1 and -trace 0 or 1")
	}
	total := time.Duration(seconds) * time.Second
	ctx := context.Background()
	if name == "" {
		return runAll(ctx, seed, total, out)
	}
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	res, err := runOne(ctx, w, seed, total, trace == 1, out)
	if err != nil {
		return fmt.Errorf("workload %s: %w", w.name, err)
	}
	printMetrics(os.Stderr, w.name, res)
	// The last line of standard output is the run's result, its metrics
	// carrying a value and a unit and nothing else.
	for name, m := range res.Metrics {
		res.Metrics[name] = metric{Value: m.Value, Unit: m.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}

func runOne(ctx context.Context, w workload, seed uint64, total time.Duration, traced bool, out string) (result, error) {
	defer debug.FreeOSMemory()
	if traced {
		return runTraced(ctx, w, seed, total, out)
	}
	return runUntraced(ctx, w, seed, total)
}

// A run stands the workload up several times and reports the median as
// setup_s, because one cold set-up swings far more than the bound: at
// least setupRepeatsMin times, and cheap set-ups up to setupRepeatsMax
// times while they together stay under a tenth of the measured time.
const (
	setupRepeatsMin = 3
	setupRepeatsMax = 40
)

// runUntraced measures the end-to-end metrics with nothing recording.
func runUntraced(ctx context.Context, w workload, seed uint64, total time.Duration) (result, error) {
	var d *deployment
	var setups []float64
	for i, start := 0, time.Now(); i < setupRepeatsMin || (i < setupRepeatsMax && time.Since(start) < total/10); i++ {
		if d != nil {
			d.close()
			debug.FreeOSMemory()
		}
		var err error
		if d, err = setup(ctx, w, seed); err != nil {
			return result{}, err
		}
		setups = append(setups, d.times.total.Seconds())
	}
	defer d.close()
	if err := d.selfCheck(ctx, seed); err != nil {
		return result{}, err
	}

	rounds, liveHeapMB := d.measure(ctx, seed, total)
	var qps, p50, slo []float64
	for _, rd := range rounds {
		qps = append(qps, float64(rd.ok())/rd.dur.Seconds())
		p50 = append(p50, quantile(sortedCopy(rd.reads), 0.50))
		slo = append(slo, float64(rd.withinSLO)/float64(max(rd.attempted, 1)))
	}
	all := merge(rounds)
	over := func(v []float64, unit string) metric { return metric{Value: median(v), Unit: unit, Spread: iqr(v)} }
	return result{
		Correct:   all.mismatched == 0,
		Attempted: all.attempted,
		Failed:    all.failed,
		Metrics: map[string]metric{
			"setup_s":      over(setups, "s"),
			"qps":          over(qps, "1/s"),
			"p50_ms":       over(p50, "ms"),
			"slo_share":    over(slo, "share"),
			"live_heap_mb": {Value: liveHeapMB, Unit: "MB"},
		},
	}, nil
}

// fingerprint says what machine and toolchain produced a result file.
type fingerprint struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

func machine() fingerprint {
	fp := fingerprint{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return fp
}

// resultFile is what a complete run writes and -compare reads.
type resultFile struct {
	Fingerprint fingerprint `json:"fingerprint"`
	Seed        uint64      `json:"seed"`
	Seconds     float64     `json:"seconds"`
	TotalS      float64     `json:"total_run_s"`
	// Workloads maps workload → mode ("end_to_end", "per_layer") → run.
	Workloads map[string]map[string]result `json:"workloads"`
}

// runAll is the one command that prints everything: each workload,
// untraced then traced, sequentially.
func runAll(ctx context.Context, seed uint64, total time.Duration, out string) error {
	start := time.Now()
	file := resultFile{Fingerprint: machine(), Seed: seed, Seconds: total.Seconds(), Workloads: map[string]map[string]result{}}
	for _, w := range workloads {
		modes := map[string]result{}
		for _, traced := range []bool{false, true} {
			res, err := runOne(ctx, w, seed, total, traced, out)
			if err != nil {
				return fmt.Errorf("workload %s: %w", w.name, err)
			}
			mode := "end_to_end"
			if traced {
				mode = "per_layer"
			}
			modes[mode] = res
			printMetrics(os.Stdout, w.name+" "+mode, res)
		}
		file.Workloads[w.name] = modes
	}
	file.TotalS = time.Since(start).Seconds()
	fmt.Printf("total run time %.1f s\n", file.TotalS)
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(out, "result.json"), append(data, '\n'), 0o644)
}

func printMetrics(w *os.File, title string, res result) {
	fmt.Fprintf(w, "== %s: ops_attempted %d  ops_ok %d  ops_failed %d  correct %v\n",
		title, res.Attempted, res.Attempted-res.Failed, res.Failed, res.Correct)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "%-32s %14.6g %-6s", name, m.Value, m.Unit)
		if m.Spread != 0 {
			fmt.Fprintf(w, "  %s.spread %.4g", name, m.Spread)
		}
		fmt.Fprintln(w)
	}
}
