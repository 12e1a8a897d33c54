package gpupir

import (
	"bytes"
	"testing"

	"github.com/impir/impir/internal/bitvec"
	"github.com/impir/impir/internal/database"
	"github.com/impir/impir/internal/dpf"
	"github.com/impir/impir/internal/metrics"
)

func newLoaded(t *testing.T, numRecords int, cfg Config) (*Engine, *database.DB) {
	t.Helper()
	eng, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	db, err := database.GenerateHashDB(numRecords, 23)
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
	for _, blocks := range []int{1, 3, 16, 128, 100000} {
		cfg := Config{ThreadBlocks: blocks}
		e0, db := newLoaded(t, 1024, cfg)
		e1, _ := newLoaded(t, 1024, cfg)
		for _, idx := range []uint64{0, 511, 1023} {
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
				t.Fatalf("blocks=%d index=%d: wrong reconstruction", blocks, idx)
			}
		}
	}
}

func TestTinyDatabase(t *testing.T) {
	// Fewer records than one selector word.
	e0, db := newLoaded(t, 32, Config{})
	e1, _ := newLoaded(t, 32, Config{})
	k0, k1 := genPair(t, db.Domain(), 5)
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
	if !bytes.Equal(r0, db.Record(5)) {
		t.Fatal("tiny database reconstruction failed")
	}
}

func TestBatchPipelineModel(t *testing.T) {
	e0, db := newLoaded(t, 2048, Config{})
	const batch = 8
	keys := make([]*dpf.Key, batch)
	for i := range keys {
		keys[i], _ = genPair(t, db.Domain(), uint64(i))
	}
	_, stats, err := e0.Pass(dpf.Batch{Keys: keys})
	if err != nil {
		t.Fatal(err)
	}
	// Pipelined makespan must be at most the serial sum but at least the
	// heaviest stage sum / 1.
	serial := stats.PerQuery.TotalModeled() * batch
	if stats.ModeledLatency > serial {
		t.Fatalf("pipelined %v exceeds serial %v", stats.ModeledLatency, serial)
	}
	if stats.ModeledLatency <= 0 {
		t.Fatal("no modeled latency")
	}
}

// TestFusedGridScanBeatsPerQueryScans: at the paper's batch point (B=8,
// 8 GiB) one fused grid pass streams VRAM once, so it must model cheaper
// than eight solo scans.
func TestFusedGridScanBeatsPerQueryScans(t *testing.T) {
	cfg := DefaultConfig()
	const dbBytes = 8 << 30
	fused := cfg.ScanBatchDuration(dbBytes, 8)
	if solo := 8 * cfg.ScanDuration(dbBytes); fused >= solo {
		t.Errorf("fused B=8 grid scan %v not below 8 solo scans %v", fused, solo)
	}
}

func TestVRAMOverflowFallsBackToPCIe(t *testing.T) {
	small := Config{VRAMBytes: 1 << 10} // 1 KB VRAM: everything overflows
	e0, db := newLoaded(t, 4096, small)
	k0, _ := genPair(t, db.Domain(), 1)
	_, bdOver, err := query(e0, k0)
	if err != nil {
		t.Fatal(err)
	}
	e1, _ := newLoaded(t, 4096, Config{})
	_, bdFit, err := query(e1, k0)
	if err != nil {
		t.Fatal(err)
	}
	if bdOver.Modeled[metrics.PhaseDpXOR] <= bdFit.Modeled[metrics.PhaseDpXOR] {
		t.Fatal("PCIe-streamed scan not modeled slower than VRAM-resident scan")
	}
}

func TestValidation(t *testing.T) {
	if _, err := New(Config{ThreadBlocks: -1}); err == nil {
		t.Error("New accepted negative blocks")
	}
	if _, err := New(Config{VRAMEfficiency: 1.5}); err == nil {
		t.Error("New accepted efficiency > 1")
	}
	eng, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	k0, _ := genPair(t, 5, 0)
	if _, _, err := query(eng, k0); err == nil {
		t.Error("pass before LoadDatabase succeeded")
	}
	if err := eng.LoadDatabase(nil); err == nil {
		t.Error("LoadDatabase(nil) succeeded")
	}
	e0, _ := newLoaded(t, 64, Config{})
	bad, _ := genPair(t, 3, 0)
	if _, _, err := query(e0, bad); err == nil {
		t.Error("pass accepted wrong-domain key")
	}
	if _, _, err := e0.Pass(dpf.Batch{}); err == nil {
		t.Error("empty pass accepted")
	}
}

func TestName(t *testing.T) {
	eng, _ := New(Config{})
	if eng.Name() != "GPU-PIR" {
		t.Errorf("Name() = %q", eng.Name())
	}
	if err := eng.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}
