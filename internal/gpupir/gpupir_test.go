package gpupir

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"github.com/impir/impir/internal/bitvec"
	"github.com/impir/impir/internal/database"
	"github.com/impir/impir/internal/dpf"
	"github.com/impir/impir/internal/engine"
	"github.com/impir/impir/internal/metrics"
	"github.com/impir/impir/internal/naivepir"
	"github.com/impir/impir/internal/xorop"
)

func newLoaded(t *testing.T, numRecords int, cfg Config) (*engine.Engine, *database.DB) {
	t.Helper()
	p, err := NewPricer(cfg)
	if err != nil {
		t.Fatalf("NewPricer: %v", err)
	}
	db, err := database.GenerateHashDB(numRecords, 23)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(p)
	if err := eng.LoadDatabase(db); err != nil {
		t.Fatalf("LoadDatabase: %v", err)
	}
	return eng, db
}

// pass1 answers in as a width-1 pass.
func pass1(t *testing.T, e *engine.Engine, in dpf.Batch) ([]byte, metrics.Breakdown) {
	t.Helper()
	results, stats, err := e.Pass(in)
	if err != nil {
		t.Fatal(err)
	}
	return results[0], stats.PerQuery
}

// unloaded builds an engine under the default GPU pricer.
func unloaded(t *testing.T) *engine.Engine {
	t.Helper()
	p, err := NewPricer(Config{})
	if err != nil {
		t.Fatal(err)
	}
	return engine.New(p)
}

// retrieve reconstructs record idx from two GPU-priced replicas of a
// numRecords-record database, one width-1 key pass on each, and returns
// it with the record itself.
func retrieve(t *testing.T, numRecords int, idx uint64) (got, want []byte) {
	t.Helper()
	e0, db := newLoaded(t, numRecords, Config{})
	e1, _ := newLoaded(t, numRecords, Config{})
	k0, k1, err := dpf.Gen(dpf.Params{Domain: db.Domain()}, idx, nil)
	if err != nil {
		t.Fatal(err)
	}
	r0, _ := pass1(t, e0, dpf.Batch{Keys: []*dpf.Key{k0}})
	r1, _ := pass1(t, e1, dpf.Batch{Keys: []*dpf.Key{k1}})
	if err := xorop.XORBytes(r0, r1); err != nil {
		t.Fatal(err)
	}
	return r0, db.Record(int(idx))
}

func TestEndToEndReconstruction(t *testing.T) {
	for _, idx := range []uint64{0, 511, 1023} {
		if got, want := retrieve(t, 1024, idx); !bytes.Equal(got, want) {
			t.Fatalf("index=%d: wrong reconstruction", idx)
		}
	}
}

func TestTinyDatabase(t *testing.T) {
	// Fewer records than one selector word.
	if got, want := retrieve(t, 32, 5); !bytes.Equal(got, want) {
		t.Fatal("tiny database reconstruction failed")
	}
}

func TestName(t *testing.T) {
	eng := unloaded(t)
	if eng.Name() != "GPU-PIR" {
		t.Errorf("Name() = %q", eng.Name())
	}
	if err := eng.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

// TestQueryBatchFusedMatchesUnfused: a fused grid scan of width B must
// be byte-equal with B width-1 passes, for DPF keys and for raw
// selector shares, across batch widths.
func TestQueryBatchFusedMatchesUnfused(t *testing.T) {
	const numRecords = 2048
	eng, db := newLoaded(t, numRecords, Config{})
	rng := rand.New(rand.NewSource(2027))
	for _, b := range []int{1, 2, 8, 32} {
		keys := make([]*dpf.Key, b)
		shares := make([]*bitvec.Vector, b)
		for q := range b {
			k, _, err := dpf.Gen(dpf.Params{Domain: db.Domain()}, uint64(rng.Intn(numRecords)), nil)
			if err != nil {
				t.Fatal(err)
			}
			keys[q] = k
			shares[q] = bitvec.New(numRecords)
			for i := range numRecords {
				shares[q].SetTo(i, rng.Intn(2) == 1)
			}
		}
		for _, in := range []dpf.Batch{{Keys: keys}, {Shares: shares}} {
			fused, stats, err := eng.Pass(in)
			if err != nil {
				t.Fatalf("B=%d: fused pass: %v", b, err)
			}
			// A batch of one takes the single-query path.
			if stats.Fused != (b > 1) {
				t.Errorf("B=%d shares=%v: pass reported Fused=%v", b, in.Shares != nil, stats.Fused)
			}
			for q := range b {
				one := dpf.Batch{}
				if in.Keys != nil {
					one.Keys = keys[q : q+1]
				} else {
					one.Shares = shares[q : q+1]
				}
				solo, soloStats, err := eng.Pass(one)
				if err != nil {
					t.Fatalf("B=%d query %d: unfused pass: %v", b, q, err)
				}
				if !bytes.Equal(fused[q], solo[0]) {
					t.Fatalf("B=%d shares=%v query %d: fused %x != unfused %x", b, in.Shares != nil, q, fused[q][:8], solo[0][:8])
				}
				if soloStats.Fused {
					t.Errorf("B=%d query %d: width-1 pass reported Fused", b, q)
				}
			}
		}
	}
}

func TestQueryShareValidation(t *testing.T) {
	e0, _ := newLoaded(t, 128, Config{})
	for name, share := range map[string]*bitvec.Vector{"nil": nil, "mis-sized": bitvec.New(16)} {
		if _, _, err := e0.Pass(dpf.Batch{Shares: []*bitvec.Vector{share}}); err == nil {
			t.Errorf("%s share accepted", name)
		}
	}
	if _, _, err := unloaded(t).Pass(dpf.Batch{Shares: []*bitvec.Vector{bitvec.New(16)}}); err == nil {
		t.Error("share query before load accepted")
	}
}

func TestUpdateRecordsDirect(t *testing.T) {
	e0, _ := newLoaded(t, 128, Config{})
	rec := bytes.Repeat([]byte{0x22}, 32)
	if err := e0.ApplyUpdates(map[uint64][]byte{9: rec}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(e0.Database().Record(9), rec) {
		t.Fatal("update not applied")
	}
	for name, bad := range map[string]map[uint64][]byte{
		"empty update":       nil,
		"out-of-range index": {1 << 20: rec},
		"short record":       {0: rec[:4]},
	} {
		if err := e0.ApplyUpdates(bad); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if err := unloaded(t).ApplyUpdates(map[uint64][]byte{0: rec}); err == nil {
		t.Error("update before load accepted")
	}
}

func TestBatchPipelineModel(t *testing.T) {
	e0, db := newLoaded(t, 2048, Config{})
	const batch = 8
	keys := make([]*dpf.Key, batch)
	for i := range keys {
		keys[i], _, _ = dpf.Gen(dpf.Params{Domain: db.Domain()}, uint64(i), nil)
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
	k0, _, err := dpf.Gen(dpf.Params{Domain: db.Domain()}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	in := dpf.Batch{Keys: []*dpf.Key{k0}}
	_, bdOver := pass1(t, e0, in)
	e1, _ := newLoaded(t, 4096, Config{})
	_, bdFit := pass1(t, e1, in)
	if bdOver.Modeled[metrics.PhaseDpXOR] <= bdFit.Modeled[metrics.PhaseDpXOR] {
		t.Fatal("PCIe-streamed scan not modeled slower than VRAM-resident scan")
	}
}

// TestQueryShareEndToEnd: shares reconstruct through the GPU pricer, and
// the O(N) share is charged as a PCIe upload with no DPF eval.
func TestQueryShareEndToEnd(t *testing.T) {
	e0, db := newLoaded(t, 512, Config{})
	e1, _ := newLoaded(t, 512, Config{})
	const idx = 77
	q, err := naivepir.Gen(nil, 512, idx, 2)
	if err != nil {
		t.Fatal(err)
	}
	r0, bd := pass1(t, e0, dpf.Batch{Shares: q.Shares[:1]})
	r1, _ := pass1(t, e1, dpf.Batch{Shares: q.Shares[1:]})
	if err := xorop.XORBytes(r0, r1); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r0, db.Record(idx)) {
		t.Fatal("share-query reconstruction failed")
	}
	if bd.Modeled[metrics.PhaseCopyToPIM] <= 0 {
		t.Error("share upload not charged")
	}
	if bd.Modeled[metrics.PhaseEval] != 0 {
		t.Error("share query charged a DPF eval phase")
	}
}

func TestValidation(t *testing.T) {
	if _, err := NewPricer(Config{VRAMEfficiency: 1.5}); err == nil {
		t.Error("NewPricer accepted efficiency > 1")
	}
}

// TestPassMatchesGridScan: the host scan the engine answers with must be
// byte-equal with the thread-block grid the model describes over the
// zero-padded database, for grids that split the selector words evenly,
// raggedly, or not at all, and for shares with random bits beyond the
// engine's 3000 records.
func TestPassMatchesGridScan(t *testing.T) {
	const numRecords = 3000
	rng := rand.New(rand.NewSource(7))
	eng, _ := newLoaded(t, numRecords, Config{})
	db := eng.Database().PadToPowerOfTwo()
	for _, blocks := range []int{1, 5, 47, 128} {
		for _, b := range []int{1, 3, 9} {
			shares := make([]*bitvec.Vector, b)
			sels := make([][]uint64, b)
			for q := range shares {
				shares[q] = bitvec.New(db.NumRecords())
				for i := 0; i < db.NumRecords(); i++ {
					shares[q].SetTo(i, rng.Intn(2) == 1)
				}
				sels[q] = shares[q].Words()
			}
			got, _, err := eng.Pass(dpf.Batch{Shares: shares})
			if err != nil {
				t.Fatal(err)
			}
			want, err := gridScan(db, sels, blocks)
			if err != nil {
				t.Fatal(err)
			}
			for q := range want {
				if !bytes.Equal(got[q], want[q]) {
					t.Fatalf("%d blocks, B=%d, selector %d: pass %x != grid %x", blocks, b, q, got[q][:8], want[q][:8])
				}
			}
		}
	}
}

// gridScan is the functional CUDA-style grid dpXOR the model describes,
// kept as the oracle for the engine's host scan: each thread block
// streams its contiguous DB slice once and accumulates every selector's
// partial from it, then a second kernel folds the per-block partials
// into the B subresults. A lone selector is the classic per-query grid
// scan. The grid has min(blocks, groups) blocks of 64-record
// selector-word groups.
func gridScan(db *database.DB, sels [][]uint64, blocks int) ([][]byte, error) {
	recordSize := db.RecordSize()
	nq := len(sels)
	results := xorop.NewAccumulators(nq, recordSize)
	partials := xorop.NewAccumulators(nq, recordSize)
	numRecords := db.NumRecords()
	groups := max(numRecords/64, 1) // 64-record selector words
	blocks = min(blocks, groups)
	groupsPerBlock := (groups + blocks - 1) / blocks
	data := db.Data()
	blockSels := make([][]uint64, nq)
	for lo := 0; lo < groups; lo += groupsPerBlock {
		hi := min(lo+groupsPerBlock, groups)
		loRec, hiRec := lo*64, min(hi*64, numRecords)
		for _, p := range partials {
			clear(p)
		}
		for q := range sels {
			blockSels[q] = sels[q][lo:hi]
		}
		// One serial pass per block — the block IS the parallel grain, so
		// the kernel below runs with a single worker.
		if err := xorop.AccumulateBatchWorkers(partials, data[loRec*recordSize:hiRec*recordSize],
			recordSize, blockSels, 1); err != nil {
			return nil, fmt.Errorf("gpupir: block at group %d: %w", lo, err)
		}
		for q := range results {
			if err := xorop.XORBytes(results[q], partials[q]); err != nil {
				return nil, err
			}
		}
	}
	return results, nil
}

// BenchmarkGridScan4096B8 measures the fused grid dpXOR at the scan_large
// geometry: 16384 records of 4 KiB, 8 random selectors, the default 128
// blocks, each of which runs xorop's serial fused kernel on its slice.
func BenchmarkGridScan4096B8(b *testing.B) {
	const n, recordSize, batch = 16384, 4096, 8
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, n*recordSize)
	rng.Read(data)
	db, err := database.FromFlat(data, recordSize)
	if err != nil {
		b.Fatal(err)
	}
	sels := make([][]uint64, batch)
	for q := range sels {
		v := bitvec.New(n)
		for i := 0; i < n; i++ {
			v.SetTo(i, rng.Intn(2) == 1)
		}
		sels[q] = v.Words()
	}
	b.SetBytes(int64(n * recordSize))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gridScan(db, sels, 128); err != nil { // one block per SM of the RTX 4090
			b.Fatal(err)
		}
	}
}
