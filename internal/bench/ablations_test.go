package bench

import "testing"

func TestAblationsPass(t *testing.T) {
	reports := Ablations(Options{})
	if len(reports) != 8 {
		t.Fatalf("got %d ablation reports, want 8 (5 paper ablations + shard scaling + keyword lookup + hedging tail)", len(reports))
	}
	for _, r := range reports {
		if len(r.Rows) == 0 {
			t.Errorf("%s: no rows", r.ID)
		}
		for _, c := range r.Checks {
			if !c.OK {
				t.Errorf("%s: %s — %s", r.ID, c.Name, c.Detail)
			}
		}
	}
}
