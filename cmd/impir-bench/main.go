// Command impir-bench regenerates the paper's evaluation artefacts: every
// figure of §5 plus Table 1, printed as aligned text tables with the
// paper-shape checks evaluated inline.
//
// Usage:
//
//	impir-bench                         # all experiments
//	impir-bench -experiment fig9a       # one experiment
//	impir-bench -verify-records 16384   # bigger functional verification
//	impir-bench -verify-records 0       # model layer only (fast)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/impir/impir/internal/bench"
)

var runners = map[string]func(bench.Options) *bench.Report{
	"fig3a":   bench.Fig3a,
	"fig3b":   bench.Fig3b,
	"fig9a":   bench.Fig9a,
	"fig9b":   bench.Fig9b,
	"fig9c":   bench.Fig9c,
	"fig9d":   bench.Fig9d,
	"fig10a":  bench.Fig10a,
	"fig10b":  bench.Fig10b,
	"table1":  bench.Table1,
	"fig11a":  bench.Fig11a,
	"fig11b":  bench.Fig11b,
	"fig12a":  bench.Fig12a,
	"fig12b":  bench.Fig12b,
	"a2":      bench.AblationTasklets,
	"a3":      bench.AblationCommunication,
	"a5":      bench.AblationEvalModes,
	"a6":      bench.AblationResidentVsBatched,
	"a7":      bench.AblationBandwidthScaling,
	"shards":  bench.ShardScaling,
	"keyword": bench.KeywordLookup,
	"hedging": bench.HedgingTail,
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "impir-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("impir-bench", flag.ContinueOnError)
	experiment := fs.String("experiment", "all",
		"experiment to run: all, or one of "+strings.Join(sortedNames(), ", "))
	verifyRecords := fs.Int("verify-records", 1<<12,
		"records in the scaled functional verification database (0 to skip)")
	csvDir := fs.String("csv", "",
		"directory to also write each experiment's data series as CSV")
	jsonOut := fs.Bool("json", false,
		"write the reports as a JSON array to stdout instead of text tables")
	if err := fs.Parse(args); err != nil {
		return err
	}

	opts := bench.Options{VerifyRecords: *verifyRecords}

	var reports []*bench.Report
	if *experiment == "all" {
		reports = append(bench.All(opts), bench.Ablations(opts)...)
	} else {
		runner, ok := runners[strings.ToLower(*experiment)]
		if !ok {
			return fmt.Errorf("unknown experiment %q (want all or one of %s)",
				*experiment, strings.Join(sortedNames(), ", "))
		}
		reports = []*bench.Report{runner(opts)}
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
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
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

func sortedNames() []string {
	return []string{
		"fig3a", "fig3b", "fig9a", "fig9b", "fig9c", "fig9d",
		"fig10a", "fig10b", "table1", "fig11a", "fig11b", "fig12a", "fig12b",
		"a2", "a3", "a5", "a6", "a7", "shards", "keyword", "hedging",
	}
}
