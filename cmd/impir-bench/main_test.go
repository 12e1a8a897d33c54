package main

import (
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"

	"github.com/impir/impir/internal/bench"
)

func TestRunSingleExperiment(t *testing.T) {
	if err := run([]string{"-experiment", "fig3b"}); err != nil {
		t.Fatalf("run(fig3b): %v", err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-experiment", "fig99"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-no-such-flag"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

// TestRunnerNamesRegistered: every experiment has a runner and a name
// that -experiment selects it by alone: non-empty, not "all", and unique
// under the case folding run applies.
func TestRunnerNamesRegistered(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range bench.Experiments {
		if e.Run == nil {
			t.Errorf("experiment %q has no runner", e.Name)
		}
		key := strings.ToLower(e.Name)
		if key == "" || key == "all" {
			t.Errorf("experiment name %q cannot be selected alone", e.Name)
		}
		if seen[key] {
			t.Errorf("experiment name %q listed twice", e.Name)
		}
		seen[key] = true
	}
}

func TestRunWritesCSV(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-experiment", "table1", "-csv", dir}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(dir + "/table-1.csv")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "dpXOR") {
		t.Fatalf("csv missing expected column: %s", data)
	}
}

func TestRunJSONReports(t *testing.T) {
	// -json must emit one parseable array of schema-tagged reports on
	// stdout and suppress the text tables.
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := run([]string{"-experiment", "table1", "-json"})
	w.Close()
	os.Stdout = old
	if runErr != nil {
		t.Fatal(runErr)
	}
	data, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	var reports []struct {
		Schema  string     `json:"schema"`
		ID      string     `json:"id"`
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
		AllPass bool       `json:"all_checks_pass"`
	}
	if err := json.Unmarshal(data, &reports); err != nil {
		t.Fatalf("stdout is not a JSON report array: %v\n%s", err, data)
	}
	if len(reports) != 1 {
		t.Fatalf("got %d reports, want 1", len(reports))
	}
	rep := reports[0]
	if rep.Schema != bench.ReportSchema {
		t.Errorf("schema %q, want %q", rep.Schema, bench.ReportSchema)
	}
	if rep.ID != "Table 1" || len(rep.Columns) == 0 || len(rep.Rows) == 0 {
		t.Errorf("report content missing: %+v", rep)
	}
	if !rep.AllPass {
		t.Error("table1 checks failed in JSON run")
	}
	if strings.Contains(string(data), "== Table 1") {
		t.Error("-json also printed the text table to stdout")
	}
}
