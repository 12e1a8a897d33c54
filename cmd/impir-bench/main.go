// Command impir-bench regenerates the paper's evaluation artefacts: every
// figure of §5 plus Table 1, the ablations and the scale-out experiments,
// evaluated from the cost models at the paper's configuration and printed
// as aligned text tables with the paper-shape checks evaluated inline. It
// exits non-zero if any check fails.
//
// Usage:
//
//	impir-bench                         # all experiments
//	impir-bench -experiment fig9a       # one experiment
//	impir-bench -csv out/               # also write each data series as CSV
//	impir-bench -json                   # JSON reports on stdout
//
// The -json output of all experiments is byte for byte the golden file
// internal/bench/testdata/figures.golden.json.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/impir/impir/internal/bench"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "impir-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	var names []string
	for _, e := range bench.Experiments {
		names = append(names, e.Name)
	}
	fs := flag.NewFlagSet("impir-bench", flag.ContinueOnError)
	experiment := fs.String("experiment", "all",
		"experiment to run: all, or one of "+strings.Join(names, ", "))
	csvDir := fs.String("csv", "",
		"directory to also write each experiment's data series as CSV")
	jsonOut := fs.Bool("json", false,
		"write the reports as a JSON array to stdout instead of text tables")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var reports []*bench.Report
	for _, e := range bench.Experiments {
		if *experiment == "all" || strings.EqualFold(*experiment, e.Name) {
			reports = append(reports, e.Run())
		}
	}
	if len(reports) == 0 {
		return fmt.Errorf("unknown experiment %q (want all or one of %s)",
			*experiment, strings.Join(names, ", "))
	}

	failures := 0
	for _, r := range reports {
		if !*jsonOut {
			r.Print(os.Stdout)
		}
		if !r.AllChecksPass() {
			failures++
		}
		if *csvDir != "" {
			if err := writeCSV(*csvDir, r); err != nil {
				return err
			}
		}
	}
	if *jsonOut {
		if err := bench.WriteJSON(os.Stdout, reports); err != nil {
			return err
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d experiment(s) failed their paper-shape checks", failures)
	}
	return nil
}

func writeCSV(dir string, r *bench.Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, r.FileStem()+".csv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
