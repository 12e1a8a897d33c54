package impir

import (
	"bytes"
	"testing"

	"github.com/impir/impir/internal/database"
	"github.com/impir/impir/internal/dpf"
	"github.com/impir/impir/internal/metrics"
)

// batchedConfig builds an engine whose MRAM cannot hold its database
// share, forcing the §3.3 streaming fallback.
func batchedConfig() Config {
	cfg := testConfig(1)
	cfg.PIM.MRAMPerDPU = 1 << 13 // 8 KB per DPU: 8 DPUs hold 64 KB total
	return cfg
}

func TestBatchedModeEndToEnd(t *testing.T) {
	// 4096 records × 32 B = 128 KB > the 64 KB the 8 DPUs can hold at
	// once → 512 records/DPU in ≥ 3 passes of ≤ 192 records.
	const numRecords = 4096
	e0, db := newLoadedEngine(t, batchedConfig(), numRecords)
	e1, _ := newLoadedEngine(t, batchedConfig(), numRecords)

	if e0.p.clusters[0].Resident() {
		t.Fatal("engine did not enter batched mode")
	}
	if e0.p.clusters[0].Passes() < 2 {
		t.Fatalf("passes = %d, want ≥ 2", e0.p.clusters[0].Passes())
	}

	for _, idx := range []uint64{0, 63, 64, 2047, numRecords - 1} {
		got := queryBothServers(t, e0, e1, db.Domain(), idx)
		if !bytes.Equal(got, db.Record(int(idx))) {
			t.Fatalf("batched mode: index %d wrong", idx)
		}
	}
}

func TestBatchedModeMatchesResident(t *testing.T) {
	// The same database answered by a resident and a batched engine must
	// produce identical subresults for the same key.
	const numRecords = 2048
	resident, db := newLoadedEngine(t, testConfig(1), numRecords)
	batched, _ := newLoadedEngine(t, batchedConfig(), numRecords)

	k0, _ := genKeys(t, db.Domain(), 777)
	r1, bd1, err := query(resident, k0)
	if err != nil {
		t.Fatal(err)
	}
	r2, bd2, err := query(batched, k0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r1, r2) {
		t.Fatal("batched and resident engines disagree")
	}
	// Batched mode must pay for staging the database per query.
	if bd2.Modeled[metrics.PhaseCopyToPIM] <= bd1.Modeled[metrics.PhaseCopyToPIM] {
		t.Fatalf("batched copy cost %v not above resident %v — DB staging unaccounted",
			bd2.Modeled[metrics.PhaseCopyToPIM], bd1.Modeled[metrics.PhaseCopyToPIM])
	}
}

func TestBatchedModeBatchQueries(t *testing.T) {
	e0, db := newLoadedEngine(t, batchedConfig(), 2048)
	e1, _ := newLoadedEngine(t, batchedConfig(), 2048)
	keys0 := make([]*dpf.Key, 4)
	keys1 := make([]*dpf.Key, 4)
	idx := []uint64{1, 500, 1500, 2047}
	for i := range keys0 {
		keys0[i], keys1[i] = genKeys(t, db.Domain(), idx[i])
	}
	r0, _, err := e0.Pass(dpf.Batch{Keys: keys0})
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
			t.Fatalf("batched batch query %d wrong", i)
		}
	}
}

func TestBatchedModeUpdates(t *testing.T) {
	e0, db := newLoadedEngine(t, batchedConfig(), 2048)
	e1, _ := newLoadedEngine(t, batchedConfig(), 2048)
	newRec := bytes.Repeat([]byte{0xEE}, 32)
	for _, e := range []*testEngine{e0, e1} {
		if err := e.ApplyUpdates(map[uint64][]byte{321: newRec}); err != nil {
			t.Fatal(err)
		}
	}
	got := queryBothServers(t, e0, e1, db.Domain(), 321)
	if !bytes.Equal(got, newRec) {
		t.Fatal("update not visible in batched mode")
	}
}

func TestMRAMTooSmallEvenForOneBatch(t *testing.T) {
	cfg := testConfig(1)
	cfg.PIM.MRAMPerDPU = 256 // cannot hold 64 records of 32 B
	eng := newEngine(t, cfg)
	db, err := database.GenerateHashDB(1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.LoadDatabase(db); err == nil {
		t.Fatal("hopelessly small MRAM accepted")
	}
}

func TestMaxRecordsFitting(t *testing.T) {
	tests := []struct {
		mram, recordSize int
	}{
		{1 << 13, 32}, {1 << 20, 32}, {1 << 16, 8}, {4096, 2048},
	}
	for _, tt := range tests {
		for _, batch := range []int{1, 4, 16} {
			got := maxRecordsFitting(tt.mram, tt.recordSize, batch)
			if got%64 != 0 {
				t.Errorf("maxRecordsFitting(%d,%d,%d) = %d, not a 64-multiple", tt.mram, tt.recordSize, batch, got)
			}
			if got > 0 && mramFootprint(got, tt.recordSize, batch) > tt.mram {
				t.Errorf("maxRecordsFitting(%d,%d,%d) = %d overflows MRAM", tt.mram, tt.recordSize, batch, got)
			}
			if mramFootprint(got+64, tt.recordSize, batch) <= tt.mram {
				t.Errorf("maxRecordsFitting(%d,%d,%d) = %d not maximal", tt.mram, tt.recordSize, batch, got)
			}
		}
	}
}
