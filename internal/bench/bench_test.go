package bench

import (
	"bytes"
	"strings"
	"testing"
)

// TestAllFiguresReproduceShapes is the reproduction gate: every check in
// every regenerated figure/table must pass.
func TestAllFiguresReproduceShapes(t *testing.T) {
	reports := All(Options{VerifyRecords: 512})
	if len(reports) != 13 {
		t.Fatalf("got %d reports, want 13 (12 figures + Table 1)", len(reports))
	}
	for _, r := range reports {
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
}

// TestShardScalingShapes: the cluster scale-out experiment's checks —
// monotonically falling per-shard cost and a real sharded retrieval at
// 1/2/4 shards — must all pass.
func TestShardScalingShapes(t *testing.T) {
	r := ShardScaling(Options{VerifyRecords: 512})
	if len(r.Rows) != 4 {
		t.Fatalf("got %d rows, want 4 shard counts", len(r.Rows))
	}
	for _, c := range r.Checks {
		if !c.OK {
			t.Errorf("check failed: %s — %s", c.Name, c.Detail)
		}
	}
}

// TestKeywordLookupShapes: the keyword-retrieval experiment's checks —
// a held load-factor target, a negligible constant stash, a constant
// per-key probe count, and a real hit/miss verification through an
// engine pair — must all pass.
func TestKeywordLookupShapes(t *testing.T) {
	r := KeywordLookup(Options{VerifyRecords: 512})
	if len(r.Rows) != 4 {
		t.Fatalf("got %d rows, want 4 table sizes", len(r.Rows))
	}
	for _, c := range r.Checks {
		if !c.OK {
			t.Errorf("check failed: %s — %s", c.Name, c.Detail)
		}
	}
	hitChecked := false
	for _, c := range r.Checks {
		if strings.Contains(c.Name, "hit") {
			hitChecked = true
		}
	}
	if !hitChecked {
		t.Error("functional hit verification missing from the report")
	}
}

func TestReportPrint(t *testing.T) {
	r := Fig3a(Options{})
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

func TestVerifyFunctional(t *testing.T) {
	note, err := verifyFunctional(256)
	if err != nil {
		t.Fatalf("verifyFunctional: %v", err)
	}
	if !strings.Contains(note, "engines agree") {
		t.Errorf("note = %q", note)
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
