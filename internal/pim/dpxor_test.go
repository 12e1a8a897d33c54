package pim

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/impir/impir/internal/bitvec"
)

func testSystem(t *testing.T, tasklets int) *System {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Ranks = 1
	cfg.DPUsPerRank = 2
	cfg.MRAMPerDPU = 4 << 20
	cfg.TaskletsPerDPU = tasklets
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	return s
}

// runDPXOR loads a chunk + selector onto DPU 0, launches the kernel, and
// returns the subresult.
func runDPXOR(t *testing.T, s *System, db []byte, recordSize int, sel *bitvec.Vector) []byte {
	t.Helper()
	numRecords := len(db) / recordSize
	selBytes := make([]byte, len(sel.Words())*8)
	for i, w := range sel.Words() {
		for b := 0; b < 8; b++ {
			selBytes[i*8+b] = byte(w >> (8 * b))
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
		DBOffset:   uint64(dbOff),
		NumRecords: uint64(numRecords),
		RecordSize: uint64(recordSize),
		SelOffset:  uint64(selOff),
		OutOffset:  uint64(outOff),
	}
	cost, err := s.Launch([]int{0}, DPXOR{}, [][]byte{args.Marshal()})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	if cost.Modeled <= 0 {
		t.Fatal("launch cost not positive")
	}
	out, err := s.InspectMRAM(0, outOff, recordSize)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func naive(db []byte, recordSize int, sel *bitvec.Vector) []byte {
	acc := make([]byte, recordSize)
	for i := 0; i < len(db)/recordSize; i++ {
		if sel.Bit(i) {
			for j := 0; j < recordSize; j++ {
				acc[j] ^= db[i*recordSize+j]
			}
		}
	}
	return acc
}

func makeWorkload(numRecords, recordSize int, seed int64) ([]byte, *bitvec.Vector) {
	rng := rand.New(rand.NewSource(seed))
	db := make([]byte, numRecords*recordSize)
	rng.Read(db)
	sel := bitvec.New(numRecords)
	for i := 0; i < numRecords; i++ {
		sel.SetTo(i, rng.Intn(2) == 1)
	}
	return db, sel
}

func TestDPXORMatchesNaive(t *testing.T) {
	tests := []struct {
		name       string
		numRecords int
		recordSize int
		tasklets   int
	}{
		{"paper workload 32B x16 tasklets", 4096, 32, 16},
		{"single tasklet", 256, 32, 1},
		{"two tasklets", 512, 32, 2},
		{"24 tasklets", 2048, 32, 24},
		{"64B records", 1024, 64, 8},
		{"8B records", 4096, 8, 16},
		{"records larger than one DMA sub-chunk", 256, 1024, 4},
		{"max record size", 128, 2048, 4},
		{"more tasklets than groups", 64, 32, 16},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := testSystem(t, tt.tasklets)
			db, sel := makeWorkload(tt.numRecords, tt.recordSize, 7)
			got := runDPXOR(t, s, db, tt.recordSize, sel)
			want := naive(db, tt.recordSize, sel)
			if !bytes.Equal(got, want) {
				t.Fatalf("kernel result mismatch:\n got %x\nwant %x", got[:16], want[:16])
			}
		})
	}
}

func TestDPXOREmptySelector(t *testing.T) {
	s := testSystem(t, 8)
	db, _ := makeWorkload(512, 32, 3)
	sel := bitvec.New(512)
	got := runDPXOR(t, s, db, 32, sel)
	if !bytes.Equal(got, make([]byte, 32)) {
		t.Fatal("empty selector produced nonzero subresult")
	}
}

func TestDPXORFullSelector(t *testing.T) {
	s := testSystem(t, 8)
	db, _ := makeWorkload(512, 32, 4)
	sel := bitvec.New(512)
	for i := 0; i < 512; i++ {
		sel.Set(i)
	}
	got := runDPXOR(t, s, db, 32, sel)
	if !bytes.Equal(got, naive(db, 32, sel)) {
		t.Fatal("full selector mismatch")
	}
}

func TestDPXORSingleSelectedRecord(t *testing.T) {
	// With exactly one bit set the subresult must equal that record —
	// this is the PIR hot path after reconstruction.
	s := testSystem(t, 16)
	db, _ := makeWorkload(1024, 32, 5)
	for _, idx := range []int{0, 63, 64, 1023} {
		sel := bitvec.New(1024)
		sel.Set(idx)
		got := runDPXOR(t, s, db, 32, sel)
		if !bytes.Equal(got, db[idx*32:(idx+1)*32]) {
			t.Fatalf("selected record %d not returned", idx)
		}
	}
}

func TestArgsValidation(t *testing.T) {
	base := DPXORArgs{NumRecords: 256, RecordSize: 32}
	tests := []struct {
		name   string
		mutate func(*DPXORArgs)
	}{
		{"zero record size", func(a *DPXORArgs) { a.RecordSize = 0 }},
		{"unaligned record size", func(a *DPXORArgs) { a.RecordSize = 20 }},
		{"oversized record", func(a *DPXORArgs) { a.RecordSize = 4096 }},
		{"unaligned db offset", func(a *DPXORArgs) { a.DBOffset = 4 }},
		{"unaligned sel offset", func(a *DPXORArgs) { a.SelOffset = 12 }},
		{"unaligned out offset", func(a *DPXORArgs) { a.OutOffset = 9 }},
		{"ragged record count", func(a *DPXORArgs) { a.NumRecords = 100 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			a := base
			tt.mutate(&a)
			if err := a.Validate(); err == nil {
				t.Error("invalid args accepted")
			}
		})
	}
	if err := base.Validate(); err != nil {
		t.Errorf("valid args rejected: %v", err)
	}
}

func TestKernelRejectsBadArgsBlock(t *testing.T) {
	s := testSystem(t, 4)
	if _, err := s.Launch([]int{0}, DPXOR{}, [][]byte{{1, 2, 3}}); err == nil {
		t.Fatal("kernel accepted malformed args block")
	}
	bad := DPXORArgs{NumRecords: 100, RecordSize: 32} // ragged count
	if _, err := s.Launch([]int{0}, DPXOR{}, [][]byte{bad.Marshal()}); err == nil {
		t.Fatal("kernel accepted invalid args")
	}
}

func TestArgsMarshalRoundTrip(t *testing.T) {
	a := DPXORArgs{DBOffset: 8, NumRecords: 640, RecordSize: 32, SelOffset: 4096, OutOffset: 8192, NumSelectors: 2}
	back, err := parseArgs(a.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if back != a {
		t.Fatalf("round trip: got %+v, want %+v", back, a)
	}

	// A pre-fusion args block (NumSelectors unset) normalises to one
	// selector stream on the wire.
	legacy := DPXORArgs{DBOffset: 8, NumRecords: 640, RecordSize: 32, SelOffset: 4096, OutOffset: 8192}
	back, err = parseArgs(legacy.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if back.NumSelectors != 1 {
		t.Fatalf("legacy args marshalled NumSelectors=%d, want 1", back.NumSelectors)
	}
}

// TestDPXORTimingScalesWithChunk: doubling the chunk should roughly
// double the modeled kernel time (DMA and compute are both linear).
func TestDPXORTimingScalesWithChunk(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Ranks = 1
	cfg.DPUsPerRank = 1
	cfg.MRAMPerDPU = 8 << 20
	cfg.TaskletsPerDPU = 16
	cfg.LaunchOverhead = 0
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}

	run := func(numRecords int) float64 {
		db, sel := makeWorkload(numRecords, 32, 11)
		selBytes := make([]byte, len(sel.Words())*8)
		for i, w := range sel.Words() {
			for b := 0; b < 8; b++ {
				selBytes[i*8+b] = byte(w >> (8 * b))
			}
		}
		selOff := (len(db) + 7) / 8 * 8
		outOff := selOff + len(selBytes)
		if err := s.Preload(0, 0, db); err != nil {
			t.Fatal(err)
		}
		if err := s.Preload(0, selOff, selBytes); err != nil {
			t.Fatal(err)
		}
		args := DPXORArgs{NumRecords: uint64(numRecords), RecordSize: 32,
			SelOffset: uint64(selOff), OutOffset: uint64(outOff)}
		cost, err := s.Launch([]int{0}, DPXOR{}, [][]byte{args.Marshal()})
		if err != nil {
			t.Fatal(err)
		}
		return cost.Modeled.Seconds()
	}

	small := run(8192)
	large := run(16384)
	ratio := large / small
	if ratio < 1.7 || ratio > 2.3 {
		t.Fatalf("2x records changed modeled time by %.2fx, want ≈ 2x", ratio)
	}
}

// TestModelCostMatchesFunctionalCharges: the analytic ModelCost used by
// the paper-scale benchmark harness must agree with what the functional
// kernel actually charges. With a selector of exactly 50% density
// (alternating 32-bit blocks) the expectation is exact for instructions
// and DMA volume.
func TestModelCostMatchesFunctionalCharges(t *testing.T) {
	const (
		numRecords = 4096
		tasklets   = 16
	)
	cfg := DefaultConfig()
	cfg.Ranks = 1
	cfg.DPUsPerRank = 1
	cfg.MRAMPerDPU = 4 << 20
	cfg.TaskletsPerDPU = tasklets
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}

	db := make([]byte, numRecords*32)
	for i := range db {
		db[i] = byte(i * 31)
	}
	// Exactly half the bits set, spread so every DMA sub-chunk is hit.
	sel := bitvec.New(numRecords)
	for i := 0; i < numRecords; i++ {
		if (i/32)%2 == 0 {
			sel.Set(i)
		}
	}
	if sel.OnesCount() != numRecords/2 {
		t.Fatalf("selector density %d, want %d", sel.OnesCount(), numRecords/2)
	}

	selBytes := make([]byte, len(sel.Words())*8)
	for i, w := range sel.Words() {
		for b := 0; b < 8; b++ {
			selBytes[i*8+b] = byte(w >> (8 * b))
		}
	}
	selOff := len(db)
	outOff := selOff + len(selBytes)
	if err := s.Preload(0, 0, db); err != nil {
		t.Fatal(err)
	}
	if err := s.Preload(0, selOff, selBytes); err != nil {
		t.Fatal(err)
	}
	args := DPXORArgs{NumRecords: numRecords, RecordSize: 32,
		SelOffset: uint64(selOff), OutOffset: uint64(outOff)}
	cost, err := s.Launch([]int{0}, DPXOR{}, [][]byte{args.Marshal()})
	if err != nil {
		t.Fatal(err)
	}

	instr, dma := ModelCost(numRecords, 32, tasklets)
	want := cfg.KernelDuration(instr, dma)
	ratio := float64(cost.Modeled) / float64(want)
	if ratio < 0.98 || ratio > 1.02 {
		t.Fatalf("functional launch %v vs analytic model %v (ratio %.3f) — harness and simulator diverged",
			cost.Modeled, want, ratio)
	}
	if cost.Bytes != dma {
		t.Fatalf("functional DMA %d bytes vs analytic %d", cost.Bytes, dma)
	}
}

// Property: kernel output equals naive selective XOR for random shapes.
func TestQuickDPXOR(t *testing.T) {
	s := testSystem(t, 8)
	f := func(seed int64, groupsRaw uint8) bool {
		groups := int(groupsRaw)%8 + 1
		numRecords := groups * 64
		db, sel := makeWorkload(numRecords, 32, seed)
		selBytes := make([]byte, len(sel.Words())*8)
		for i, w := range sel.Words() {
			for b := 0; b < 8; b++ {
				selBytes[i*8+b] = byte(w >> (8 * b))
			}
		}
		selOff := (len(db) + 7) / 8 * 8
		outOff := selOff + len(selBytes)
		if err := s.Preload(0, 0, db); err != nil {
			return false
		}
		if err := s.Preload(0, selOff, selBytes); err != nil {
			return false
		}
		args := DPXORArgs{NumRecords: uint64(numRecords), RecordSize: 32,
			SelOffset: uint64(selOff), OutOffset: uint64(outOff)}
		if _, err := s.Launch([]int{0}, DPXOR{}, [][]byte{args.Marshal()}); err != nil {
			return false
		}
		got, err := s.InspectMRAM(0, outOff, 32)
		if err != nil {
			return false
		}
		return bytes.Equal(got, naive(db, 32, sel))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
