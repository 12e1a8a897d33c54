package pim

import (
	"bytes"
	"testing"

	"github.com/impir/impir/internal/bitvec"
)

// runDPXORBatch loads a chunk plus B back-to-back selector streams onto
// DPU 0, launches one fused kernel, and returns the B subresults.
func runDPXORBatch(t *testing.T, s *System, db []byte, recordSize int, sels []*bitvec.Vector) ([][]byte, Cost) {
	t.Helper()
	numRecords := len(db) / recordSize
	selStride := numRecords / 8
	selBytes := make([]byte, len(sels)*selStride)
	for q, sel := range sels {
		for i, w := range sel.Words() {
			for b := 0; b < 8; b++ {
				selBytes[q*selStride+i*8+b] = byte(w >> (8 * b))
			}
		}
	}
	dbOff := 0
	selOff := (len(db) + 7) / 8 * 8
	outOff := (selOff + len(selBytes) + 7) / 8 * 8

	if err := s.Preload(0, dbOff, db); err != nil {
		t.Fatal(err)
	}
	if err := s.Preload(0, selOff, selBytes); err != nil {
		t.Fatal(err)
	}
	args := DPXORArgs{
		DBOffset:     uint64(dbOff),
		NumRecords:   uint64(numRecords),
		RecordSize:   uint64(recordSize),
		SelOffset:    uint64(selOff),
		OutOffset:    uint64(outOff),
		NumSelectors: uint64(len(sels)),
	}
	cost, err := s.Launch([]int{0}, DPXOR{}, [][]byte{args.Marshal()})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	results := make([][]byte, len(sels))
	for q := range sels {
		out, err := s.InspectMRAM(0, outOff+q*recordSize, recordSize)
		if err != nil {
			t.Fatal(err)
		}
		results[q] = out
	}
	return results, cost
}

// TestDPXORBatchMatchesSolo: a fused B-stream launch must be bit-exact
// with B independent single-selector launches.
func TestDPXORBatchMatchesSolo(t *testing.T) {
	tests := []struct {
		name       string
		numRecords int
		recordSize int
		tasklets   int
		batch      int
	}{
		{"paper workload B=4", 4096, 32, 16, 4},
		{"B=8 x16 tasklets", 2048, 32, 16, 8},
		{"single tasklet B=3", 256, 32, 1, 3},
		{"64B records B=5", 1024, 64, 8, 5},
		{"large records B=2", 256, 1024, 4, 2},
		{"B=1 degenerate", 512, 32, 8, 1},
		{"wide batch B=16", 512, 32, 8, 16},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			db, _ := makeWorkload(tt.numRecords, tt.recordSize, 7)
			sels := make([]*bitvec.Vector, tt.batch)
			for q := range sels {
				_, sels[q] = makeWorkload(tt.numRecords, tt.recordSize, int64(100+q))
			}

			s := testSystem(t, tt.tasklets)
			got, _ := runDPXORBatch(t, s, db, tt.recordSize, sels)
			for q, sel := range sels {
				want := naive(db, tt.recordSize, sel)
				if !bytes.Equal(got[q], want) {
					t.Fatalf("stream %d mismatch:\n got %x\nwant %x", q, got[q][:16], want[:16])
				}
			}
		})
	}
}

// TestDPXORBatchAmortisesDMA: the fused pass must move far fewer DMA
// bytes than B independent launches — the chunk crosses MRAM↔WRAM once
// per pass, not once per stream.
func TestDPXORBatchAmortisesDMA(t *testing.T) {
	const numRecords, recordSize, batch = 4096, 32, 8
	db, _ := makeWorkload(numRecords, recordSize, 11)
	sels := make([]*bitvec.Vector, batch)
	for q := range sels {
		_, sels[q] = makeWorkload(numRecords, recordSize, int64(200+q))
	}

	s := testSystem(t, 16)
	_, fusedCost := runDPXORBatch(t, s, db, recordSize, sels)

	var soloBytes int64
	for _, sel := range sels {
		s2 := testSystem(t, 16)
		selBytes := make([]byte, len(sel.Words())*8)
		for i, w := range sel.Words() {
			for b := 0; b < 8; b++ {
				selBytes[i*8+b] = byte(w >> (8 * b))
			}
		}
		selOff := (len(db) + 7) / 8 * 8
		outOff := (selOff + len(selBytes) + 7) / 8 * 8
		if err := s2.Preload(0, 0, db); err != nil {
			t.Fatal(err)
		}
		if err := s2.Preload(0, selOff, selBytes); err != nil {
			t.Fatal(err)
		}
		args := DPXORArgs{
			NumRecords: uint64(numRecords),
			RecordSize: uint64(recordSize),
			SelOffset:  uint64(selOff),
			OutOffset:  uint64(outOff),
		}
		cost, err := s2.Launch([]int{0}, DPXOR{}, [][]byte{args.Marshal()})
		if err != nil {
			t.Fatal(err)
		}
		soloBytes += cost.Bytes
	}

	// With ~half the records selected per share, each solo launch DMAs
	// ~half the chunk; the fused union covers nearly all of it once. The
	// fused pass must stay well under the B-launch total — anything
	// above half means the chunk is crossing the bus per stream again.
	if fusedCost.Bytes*2 >= soloBytes {
		t.Fatalf("fused pass moved %d DMA bytes, %d unfused: fusion is not amortising the chunk",
			fusedCost.Bytes, soloBytes)
	}
}

// TestModelCostBatch pins the analytic batch cost model: batch=1 equals
// the historical ModelCost, DMA grows only by selector+output streams,
// and instruction work scales with the batch.
func TestModelCostBatch(t *testing.T) {
	instr1, dma1 := ModelCost(4096, 32, 16)
	instrB1, dmaB1 := ModelCostBatch(4096, 32, 16, 1)
	if instr1 != instrB1 || dma1 != dmaB1 {
		t.Fatalf("ModelCost != ModelCostBatch(1): (%d,%d) vs (%d,%d)", instr1, dma1, instrB1, dmaB1)
	}

	const b = 8
	instrB, dmaB := ModelCostBatch(4096, 32, 16, b)
	if instrB != b*instr1 {
		t.Errorf("fused instr = %d, want %d (B× the solo launch)", instrB, b*instr1)
	}
	// DMA: db once + B selector streams + B outputs.
	wantDMA := int64(4096*32) + b*(4096/8) + b*32
	if dmaB != wantDMA {
		t.Errorf("fused dma = %d, want %d", dmaB, wantDMA)
	}
	if dmaB >= b*dma1 {
		t.Errorf("fused dma %d not below %d (B solo launches)", dmaB, b*dma1)
	}
}

// TestMaxFusedSelectors sanity-checks the WRAM feasibility envelope.
func TestMaxFusedSelectors(t *testing.T) {
	cfg := DefaultConfig()
	if got := MaxFusedSelectors(cfg, 32); got < 8 {
		t.Errorf("MaxFusedSelectors(32B records) = %d, want ≥ 8 under a 64KB WRAM budget", got)
	}
	if got := MaxFusedSelectors(cfg, 2048); got < 1 {
		t.Errorf("MaxFusedSelectors(2048B records) = %d, want ≥ 1", got)
	}
	small := cfg
	small.TaskletsPerDPU = 1
	if a, b := MaxFusedSelectors(cfg, 32), MaxFusedSelectors(small, 32); b < a {
		t.Errorf("fewer tasklets must not shrink the feasible batch: %d tasklets→%d, 1 tasklet→%d",
			cfg.TaskletsPerDPU, a, b)
	}
}
