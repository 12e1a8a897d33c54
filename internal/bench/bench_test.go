package bench

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/figures.golden.json")

const goldenPath = "testdata/figures.golden.json"

// requireShapes fails t unless r has data rows and every paper-shape
// check of r passes.
func requireShapes(t *testing.T, r *Report) {
	t.Helper()
	if len(r.Rows) == 0 {
		t.Errorf("%s: no data rows", r.ID)
	}
	for _, c := range r.Checks {
		if !c.OK {
			t.Errorf("%s: check failed: %s — %s", r.ID, c.Name, c.Detail)
		}
	}
	if !r.AllChecksPass() {
		t.Errorf("%s: AllChecksPass() = false", r.ID)
	}
}

// isPaperFigure reports whether e regenerates one of the paper's §5
// figures or Table 1, as opposed to an ablation or scale-out experiment.
func isPaperFigure(e Experiment) bool {
	return strings.HasPrefix(e.Name, "fig") || strings.HasPrefix(e.Name, "table")
}

// TestAllFiguresReproduceShapes: every regenerated figure and Table 1
// has rows and passes all its paper-shape checks.
func TestAllFiguresReproduceShapes(t *testing.T) {
	n := 0
	for _, e := range Experiments {
		if isPaperFigure(e) {
			requireShapes(t, e.Run())
			n++
		}
	}
	if n != 13 {
		t.Fatalf("got %d figure reports, want 13 (12 figures + Table 1)", n)
	}
}

// TestAblationsPass: every ablation and scale-out experiment has rows and
// passes all its checks.
func TestAblationsPass(t *testing.T) {
	n := 0
	for _, e := range Experiments {
		if !isPaperFigure(e) {
			requireShapes(t, e.Run())
			n++
		}
	}
	if n != 8 {
		t.Fatalf("got %d ablation reports, want 8 (5 paper ablations + shard scaling + keyword lookup + hedging tail)", n)
	}
}

// TestFiguresGolden is the reproduction gate: every experiment renders,
// through the writer impir-bench -json uses, byte for byte to the golden
// file, every report has rows, and every paper-shape check passes. With
// -update it rewrites the file instead; review the diff to see which
// paper cells a model change moved.
func TestFiguresGolden(t *testing.T) {
	var reports []*Report
	for _, e := range Experiments {
		r := e.Run()
		requireShapes(t, r)
		reports = append(reports, r)
	}
	var got bytes.Buffer
	if err := WriteJSON(&got, reports); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(goldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	var wantReports []json.RawMessage
	if err := json.Unmarshal(want, &wantReports); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	if len(wantReports) != len(reports) {
		t.Errorf("golden file holds %d reports, the experiments produce %d", len(wantReports), len(reports))
	}
	for i, r := range reports {
		gotReport, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		var wantReport bytes.Buffer
		if i < len(wantReports) {
			if err := json.Compact(&wantReport, wantReports[i]); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(gotReport, wantReport.Bytes()) {
			t.Errorf("%s (%s) differs from the golden file", r.ID, Experiments[i].Name)
		}
	}
	t.Errorf("reports differ from %s; if the model change is intended, rerun with -update and review the diff", goldenPath)
}

// TestShardScalingShapes: the cluster scale-out experiment has one row
// per shard count, and its monotonically-falling-cost checks pass.
func TestShardScalingShapes(t *testing.T) {
	r := ShardScaling()
	if len(r.Rows) != 4 {
		t.Fatalf("got %d rows, want 4 shard counts", len(r.Rows))
	}
	for _, c := range r.Checks {
		if !c.OK {
			t.Errorf("check failed: %s — %s", c.Name, c.Detail)
		}
	}
}

// TestKeywordLookupShapes: the keyword-retrieval experiment has one row
// per table size, and its checks — a held load-factor target, a
// negligible stash, a constant per-key probe count — pass.
func TestKeywordLookupShapes(t *testing.T) {
	r := KeywordLookup()
	if len(r.Rows) != 4 {
		t.Fatalf("got %d rows, want 4 table sizes", len(r.Rows))
	}
	for _, c := range r.Checks {
		if !c.OK {
			t.Errorf("check failed: %s — %s", c.Name, c.Detail)
		}
	}
}

func TestReportPrint(t *testing.T) {
	r := Fig3a()
	var buf bytes.Buffer
	r.Print(&buf)
	out := buf.String()
	for _, want := range []string{"Figure 3a", "DB (GB)", "Eval", "dpXOR", "[PASS]"} {
		if !strings.Contains(out, want) {
			t.Errorf("printed report missing %q:\n%s", want, out)
		}
	}
}

func TestReportCheckFailureRendered(t *testing.T) {
	r := &Report{ID: "X", Title: "t", Columns: []string{"a"}}
	r.AddCheck("never true", false, "detail %d", 42)
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "[FAIL] never true — detail 42") {
		t.Errorf("failure not rendered: %s", buf.String())
	}
	if r.AllChecksPass() {
		t.Error("AllChecksPass with failing check")
	}
}

func TestRecordsFor(t *testing.T) {
	// 1 GiB / 32 B = 2^25 records exactly.
	if n := recordsFor(1); n != 1<<25 {
		t.Errorf("recordsFor(1) = %d, want %d", n, 1<<25)
	}
	// Non-power-of-two sizes round up.
	if n := recordsFor(0.75); n != 1<<25 {
		t.Errorf("recordsFor(0.75) = %d, want %d (padded)", n, 1<<25)
	}
	if domainOf(1<<25) != 25 {
		t.Errorf("domainOf(2^25) = %d", domainOf(1<<25))
	}
}

func TestModelsInternallyConsistent(t *testing.T) {
	// The modeled batch makespan can never beat the heavier stage's
	// serial time, and must be at most the fully serial time.
	pm := paperPIM()
	n := recordsFor(1)
	bd := pm.phases(n)
	perQuery := bd.TotalModeled()
	const batch = 64
	makespan, _ := pm.batch(n, batch)
	if makespan > perQuery*batch {
		t.Errorf("pipelined makespan %v exceeds serial %v", makespan, perQuery*batch)
	}
	if makespan <= 0 {
		t.Error("empty makespan")
	}
}

func TestStatsHelpers(t *testing.T) {
	xs := []float64{3, 1, 2}
	if minF(xs) != 1 || maxF(xs) != 3 || avgF(xs) != 2 {
		t.Errorf("helpers wrong: min=%v max=%v avg=%v", minF(xs), maxF(xs), avgF(xs))
	}
}

func TestRidgeAndAttainable(t *testing.T) {
	m := roofline{peakOpsPerSec: 10e9, bytesPerSec: 20e9}
	if got := m.ridge(); got != 0.5 {
		t.Fatalf("ridge = %v, want 0.5", got)
	}
	// Below the ridge: bandwidth-limited.
	if got := m.attainable(0.1); got != 2e9 {
		t.Fatalf("attainable(0.1) = %v, want 2e9", got)
	}
	// Above the ridge: compute roof.
	if got := m.attainable(10); got != 10e9 {
		t.Fatalf("attainable(10) = %v, want peak", got)
	}
	if !m.memoryBound(0.1) || m.memoryBound(1.0) {
		t.Fatal("memoryBound misclassifies intensities")
	}
}

// TestAchievedBelowRoofline: achieved performance from the modeled
// durations must not exceed the roofline bound at the kernel's intensity.
func TestAchievedBelowRoofline(t *testing.T) {
	dpxor := dpxorKernel(4<<30, 1650*time.Millisecond)
	if achieved := dpxor.achieved(); achieved > cpuRoofline.attainable(dpxor.intensity()) {
		t.Errorf("dpXOR achieved %.2e exceeds roofline bound %.2e",
			achieved, cpuRoofline.attainable(dpxor.intensity()))
	}
}

// TestFigure3bShape checks the figure's qualitative claims on the
// baseline machine: dpXOR and Eval are memory-bound and dpXOR has the
// lower operational intensity.
func TestFigure3bShape(t *testing.T) {
	m := cpuRoofline
	dpxor := dpxorKernel(1<<30, 500*time.Millisecond)
	eval := ggmKernel("Eval", 1<<25, 150*time.Millisecond)

	if !m.memoryBound(dpxor.intensity()) {
		t.Errorf("dpXOR OI %.3f not memory-bound (ridge %.3f)", dpxor.intensity(), m.ridge())
	}
	if !m.memoryBound(eval.intensity()) {
		t.Errorf("Eval OI %.3f not memory-bound (ridge %.3f)", eval.intensity(), m.ridge())
	}
	if dpxor.intensity() >= eval.intensity() {
		t.Errorf("dpXOR OI %.3f should be below Eval OI %.3f", dpxor.intensity(), eval.intensity())
	}
}

// TestGenKernelTiny: client Gen expands O(log N) GGM nodes, so its work
// is negligible next to full-domain Eval over N leaves.
func TestGenKernelTiny(t *testing.T) {
	g := ggmKernel("Gen", 30, 3*time.Microsecond)
	e := ggmKernel("Eval", 1<<30, time.Second)
	if g.ops >= e.ops/1e6 {
		t.Error("Gen ops should be negligible next to Eval")
	}
}
