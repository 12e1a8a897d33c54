// Package bench regenerates every table and figure of the paper's
// evaluation (§5), plus the ablations and scale-out experiments. Each
// experiment evaluates the per-phase cost models (hostmodel, pim.Config,
// pim.ModelCost, gpupir.Config) at the paper's configuration —
// 0.5–32 GB databases, 2048 DPUs, a 32-thread baseline — and produces a
// Report holding the rows or series the paper plots and the paper-shape
// checks evaluated on them.
//
// The reports are deterministic, and testdata/figures.golden.json pins
// them byte for byte (TestFiguresGolden). After a cost-model change,
// regenerate the file and review which paper cells moved:
//
//	go test ./internal/bench -run TestFiguresGolden -update
//	git diff internal/bench/testdata/figures.golden.json
//
// That the engines behind the models answer correctly is the business of
// their own tests and the end-to-end tests of the root package.
package bench

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Report is one regenerated table or figure.
type Report struct {
	// ID is the paper artefact ("Figure 9a", "Table 1", …).
	ID string
	// Title describes the experiment.
	Title string
	// Columns are the table header.
	Columns []string
	// Rows are the data series, one row per x-axis point.
	Rows [][]string
	// Checks are the paper-shape assertions evaluated on the data.
	Checks []Check
	// Notes carry configuration details.
	Notes []string
}

// Check is one paper-shape criterion evaluated against the modeled data.
type Check struct {
	// Name states the expectation, quoting the paper where possible.
	Name string
	// OK reports whether the regenerated data satisfies it.
	OK bool
	// Detail quantifies the observation.
	Detail string
}

// AddCheck records a shape assertion.
func (r *Report) AddCheck(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, Check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// AddNote appends a free-form note.
func (r *Report) AddNote(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// AllChecksPass reports whether every shape criterion held.
func (r *Report) AllChecksPass() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// WriteCSV emits the report's data series as CSV (header + rows) for
// external plotting tools to regenerate the paper's figures graphically.
func (r *Report) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(r.Columns); err != nil {
		return fmt.Errorf("bench: write csv header: %w", err)
	}
	for _, row := range r.Rows {
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("bench: write csv row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReportSchema versions the machine-readable report form emitted by
// WriteJSON (impir-bench -json).
const ReportSchema = "impir-bench/1"

// reportJSON is the wire shape of one report: the same fields Print
// renders, with stable lower-case keys and an explicit schema tag so
// downstream tooling can detect format drift.
type reportJSON struct {
	Schema  string      `json:"schema"`
	ID      string      `json:"id"`
	Title   string      `json:"title"`
	Columns []string    `json:"columns"`
	Rows    [][]string  `json:"rows"`
	Checks  []checkJSON `json:"checks,omitempty"`
	Notes   []string    `json:"notes,omitempty"`
	AllPass bool        `json:"all_checks_pass"`
}

type checkJSON struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// MarshalJSON emits the report in its versioned machine-readable form.
func (r *Report) MarshalJSON() ([]byte, error) {
	out := reportJSON{
		Schema:  ReportSchema,
		ID:      r.ID,
		Title:   r.Title,
		Columns: r.Columns,
		Rows:    r.Rows,
		Notes:   r.Notes,
		AllPass: r.AllChecksPass(),
	}
	for _, c := range r.Checks {
		out.Checks = append(out.Checks, checkJSON(c))
	}
	return json.Marshal(out)
}

// WriteJSON emits the reports as one indented JSON array: the form of
// impir-bench -json and of the golden file.
func WriteJSON(w io.Writer, reports []*Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(reports)
}

// FileStem returns a filesystem-friendly name for the report
// ("figure-9a", "table-1", "ablation-a3").
func (r *Report) FileStem() string {
	stem := strings.ToLower(r.ID)
	stem = strings.ReplaceAll(stem, " ", "-")
	return stem
}

// Print renders the report as an aligned text table.
func (r *Report) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s — %s ==\n", r.ID, r.Title)

	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], cell)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	printRow(r.Columns)
	sep := make([]string, len(r.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	printRow(sep)
	for _, row := range r.Rows {
		printRow(row)
	}
	for _, c := range r.Checks {
		status := "PASS"
		if !c.OK {
			status = "FAIL"
		}
		fmt.Fprintf(w, "  [%s] %s — %s\n", status, c.Name, c.Detail)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}
