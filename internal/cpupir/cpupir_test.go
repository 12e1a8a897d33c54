package cpupir

import (
	"bytes"
	"testing"

	"github.com/impir/impir/internal/bitvec"
	"github.com/impir/impir/internal/database"
	"github.com/impir/impir/internal/dpf"
	"github.com/impir/impir/internal/metrics"
)

func newLoaded(t *testing.T, numRecords int) (*Engine, *database.DB) {
	t.Helper()
	eng, err := New(Config{Threads: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	db, err := database.GenerateHashDB(numRecords, 11)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.LoadDatabase(db); err != nil {
		t.Fatalf("LoadDatabase: %v", err)
	}
	return eng, db
}

func genPair(t *testing.T, domain int, idx uint64) (*dpf.Key, *dpf.Key) {
	t.Helper()
	k0, k1, err := dpf.Gen(dpf.Params{Domain: domain}, idx, nil)
	if err != nil {
		t.Fatal(err)
	}
	return k0, k1
}

// query answers one key as a width-1 pass.
func query(e *Engine, key *dpf.Key) ([]byte, metrics.Breakdown, error) {
	return pass1(e, dpf.Batch{Keys: []*dpf.Key{key}})
}

// queryShare answers one selector share as a width-1 pass.
func queryShare(e *Engine, share *bitvec.Vector) ([]byte, metrics.Breakdown, error) {
	return pass1(e, dpf.Batch{Shares: []*bitvec.Vector{share}})
}

func pass1(e *Engine, in dpf.Batch) ([]byte, metrics.Breakdown, error) {
	results, stats, err := e.Pass(in)
	if err != nil {
		return nil, metrics.Breakdown{}, err
	}
	return results[0], stats.PerQuery, nil
}

func TestEndToEndReconstruction(t *testing.T) {
	e0, db := newLoaded(t, 1024)
	e1, _ := newLoaded(t, 1024)
	for _, idx := range []uint64{0, 17, 1023} {
		k0, k1 := genPair(t, db.Domain(), idx)
		r0, _, err := query(e0, k0)
		if err != nil {
			t.Fatal(err)
		}
		r1, _, err := query(e1, k1)
		if err != nil {
			t.Fatal(err)
		}
		for i := range r0 {
			r0[i] ^= r1[i]
		}
		if !bytes.Equal(r0, db.Record(int(idx))) {
			t.Fatalf("index %d: wrong reconstruction", idx)
		}
	}
}

func TestBatch(t *testing.T) {
	e0, db := newLoaded(t, 512)
	e1, _ := newLoaded(t, 512)
	const batch = 10
	keys0 := make([]*dpf.Key, batch)
	keys1 := make([]*dpf.Key, batch)
	idx := make([]uint64, batch)
	for i := range idx {
		idx[i] = uint64(i * 50 % 512)
		keys0[i], keys1[i] = genPair(t, db.Domain(), idx[i])
	}
	r0, stats, err := e0.Pass(dpf.Batch{Keys: keys0})
	if err != nil {
		t.Fatal(err)
	}
	r1, _, err := e1.Pass(dpf.Batch{Keys: keys1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range idx {
		rec := make([]byte, 32)
		copy(rec, r0[i])
		for j := range rec {
			rec[j] ^= r1[i][j]
		}
		if !bytes.Equal(rec, db.Record(int(idx[i]))) {
			t.Fatalf("batch query %d wrong", i)
		}
	}
	if stats.Queries != batch || stats.ModeledLatency <= 0 || stats.WallLatency <= 0 {
		t.Errorf("bad stats: %+v", stats)
	}
}

func TestBreakdownDominatedByDpXOR(t *testing.T) {
	// Table 1: the CPU baseline's modeled time must be dominated by the
	// dpXOR scan, not DPF evaluation.
	e0, db := newLoaded(t, 4096)
	k0, _ := genPair(t, db.Domain(), 3)
	_, bd, err := query(e0, k0)
	if err != nil {
		t.Fatal(err)
	}
	if bd.Modeled[metrics.PhaseDpXOR] <= bd.Modeled[metrics.PhaseEval] {
		t.Fatalf("dpXOR modeled %v not dominant over Eval %v",
			bd.Modeled[metrics.PhaseDpXOR], bd.Modeled[metrics.PhaseEval])
	}
	if bd.Modeled[metrics.PhaseCopyToPIM] != 0 {
		t.Error("CPU baseline has a copy-to-PIM phase")
	}
}

func TestValidation(t *testing.T) {
	if _, err := New(Config{Threads: -1}); err == nil {
		t.Error("New accepted negative threads")
	}
	eng, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Config().Threads != 32 {
		t.Errorf("default threads = %d, want 32", eng.Config().Threads)
	}
	k0, _ := genPair(t, 9, 0)
	if _, _, err := query(eng, k0); err == nil {
		t.Error("pass before LoadDatabase succeeded")
	}
	if err := eng.LoadDatabase(nil); err == nil {
		t.Error("LoadDatabase(nil) succeeded")
	}
	db, _ := database.New(16, 12)
	if err := eng.LoadDatabase(db); err == nil {
		t.Error("LoadDatabase accepted 12-byte records")
	}

	e0, _ := newLoaded(t, 512)
	bad, _ := genPair(t, 4, 0)
	if _, _, err := query(e0, bad); err == nil {
		t.Error("pass accepted wrong-domain key")
	}
	if _, _, err := query(e0, nil); err == nil {
		t.Error("nil key accepted")
	}
	if _, _, err := e0.Pass(dpf.Batch{}); err == nil {
		t.Error("empty pass accepted")
	}
}

// TestPassAllocs pins the allocations of a pass over a 1024 × 32 B
// database: at most 8 for a lone key and 160 for a width-8 pass.
func TestPassAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector perturbs allocation counts")
	}
	eng, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	db, err := database.GenerateHashDB(1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.LoadDatabase(db); err != nil {
		t.Fatal(err)
	}
	keys := make([]*dpf.Key, 8)
	for i := range keys {
		keys[i], _ = genPair(t, db.Domain(), uint64(i*100))
	}
	for _, tc := range []struct {
		in   dpf.Batch
		want float64
	}{
		{dpf.Batch{Keys: keys[:1]}, 8},
		{dpf.Batch{Keys: keys}, 160},
	} {
		allocs := testing.AllocsPerRun(20, func() {
			if _, _, err := eng.Pass(tc.in); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > tc.want {
			t.Errorf("width-%d pass = %v allocations, want ≤ %v", tc.in.Len(), allocs, tc.want)
		}
	}
}

func TestName(t *testing.T) {
	eng, _ := New(Config{})
	if eng.Name() != "CPU-PIR" {
		t.Errorf("Name() = %q", eng.Name())
	}
	if err := eng.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}
