package xorop

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/impir/impir/internal/bitvec"
)

// batchSelectors builds B random selectors over n records.
func batchSelectors(n, batch int, seed int64) []*bitvec.Vector {
	sels := make([]*bitvec.Vector, batch)
	for q := range sels {
		sels[q] = randomSelector(n, seed+int64(q))
	}
	return sels
}

func selectorWords(sels []*bitvec.Vector) [][]uint64 {
	words := make([][]uint64, len(sels))
	for q, s := range sels {
		words[q] = s.Words()
	}
	return words
}

// TestAccumulateBatchMatchesIndependent is the core fused-kernel
// contract: one fused pass must be bit-identical to B independent
// Accumulate calls, for every record-size dispatch path and for both the
// serial and parallel partitionings.
func TestAccumulateBatchMatchesIndependent(t *testing.T) {
	tests := []struct {
		numRecords int
		recordSize int
		batch      int
	}{
		{256, 32, 1},
		{256, 32, 4},
		{97, 32, 8},
		{130, 64, 5},
		{1000, 8, 3},
		{77, 24, 7},
		{50, 13, 4},
		{1, 32, 6},
		{500, 1, 2},
		{64, 32, 16},
		{4096, 32, 32},
	}
	for _, tt := range tests {
		name := fmt.Sprintf("n=%d/rs=%d/B=%d", tt.numRecords, tt.recordSize, tt.batch)
		t.Run(name, func(t *testing.T) {
			db := buildDB(tt.numRecords, tt.recordSize, 42)
			sels := batchSelectors(tt.numRecords, tt.batch, 100)
			words := selectorWords(sels)

			want := make([][]byte, tt.batch)
			for q := range want {
				want[q] = make([]byte, tt.recordSize)
				if err := Accumulate(want[q], db, tt.recordSize, words[q]); err != nil {
					t.Fatalf("Accumulate[%d]: %v", q, err)
				}
			}

			for _, workers := range []int{1, 3, 8} {
				accs := make([][]byte, tt.batch)
				for q := range accs {
					accs[q] = make([]byte, tt.recordSize)
				}
				if err := AccumulateBatchWorkers(accs, db, tt.recordSize, words, workers); err != nil {
					t.Fatalf("AccumulateBatchWorkers(workers=%d): %v", workers, err)
				}
				for q := range accs {
					if !bytes.Equal(accs[q], want[q]) {
						t.Fatalf("workers=%d selector %d mismatch:\n got %x\nwant %x",
							workers, q, accs[q], want[q])
					}
				}
			}
		})
	}
}

func TestAccumulateBatchXorsIntoExisting(t *testing.T) {
	// Like Accumulate, the fused pass must XOR into the accumulators.
	db := buildDB(64, 32, 7)
	sels := batchSelectors(64, 3, 8)
	words := selectorWords(sels)

	want := make([][]byte, 3)
	accs := make([][]byte, 3)
	for q := range accs {
		want[q] = make([]byte, 32)
		if err := Accumulate(want[q], db, 32, words[q]); err != nil {
			t.Fatal(err)
		}
		accs[q] = make([]byte, 32)
		for i := range accs[q] {
			accs[q][i] = byte(0x11 * (q + 1))
			want[q][i] ^= byte(0x11 * (q + 1))
		}
	}
	if err := AccumulateBatch(accs, db, 32, words); err != nil {
		t.Fatal(err)
	}
	for q := range accs {
		if !bytes.Equal(accs[q], want[q]) {
			t.Fatalf("selector %d: fused pass overwrote instead of XORing", q)
		}
	}
}

func TestAccumulateBatchEmpty(t *testing.T) {
	db := buildDB(64, 32, 1)
	if err := AccumulateBatch(nil, db, 32, nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}

func TestAccumulateBatchValidation(t *testing.T) {
	db := buildDB(64, 32, 3)
	good := bitvec.New(64).Words()
	tests := []struct {
		name string
		call func() error
	}{
		{"acc/sel count mismatch", func() error {
			return AccumulateBatch([][]byte{make([]byte, 32)}, db, 32, nil)
		}},
		{"bad accumulator size", func() error {
			return AccumulateBatch([][]byte{make([]byte, 16)}, db, 32, [][]uint64{good})
		}},
		{"tail bits set in one selector", func() error {
			bad := bitvec.New(128)
			bad.Set(100)
			return AccumulateBatch(
				[][]byte{make([]byte, 32), make([]byte, 32)},
				db, 32, [][]uint64{good, bad.Words()})
		}},
		{"selector too short", func() error {
			return AccumulateBatch([][]byte{make([]byte, 32)}, db, 32, [][]uint64{nil})
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.call(); err == nil {
				t.Error("invalid batch accepted")
			}
		})
	}
}

// TestAccumulateWideZeroAllocs pins the satellite fix: the wide kernel's
// scratch accumulator must live on the stack for record sizes up to
// wideStackWords*8 bytes, so the per-query hot loop performs zero heap
// allocations.
func TestAccumulateWideZeroAllocs(t *testing.T) {
	for _, recordSize := range []int{8, 24, 64, 512} {
		db := buildDB(256, recordSize, 5)
		sel := randomSelector(256, 6).Words()
		acc := make([]byte, recordSize)
		allocs := testing.AllocsPerRun(20, func() {
			if err := Accumulate(acc, db, recordSize, sel); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("recordSize=%d: Accumulate allocated %.1f times per run, want 0",
				recordSize, allocs)
		}
	}
}

// FuzzAccumulateBatch differentially fuzzes the fused kernel against B
// independent Accumulate calls over random record sizes, record counts,
// batch widths, and selector contents — including the tail-bit
// rejection path.
func FuzzAccumulateBatch(f *testing.F) {
	f.Add(int64(1), uint16(100), uint8(0), uint8(4))
	f.Add(int64(7), uint16(1), uint8(3), uint8(1))
	f.Add(int64(99), uint16(400), uint8(5), uint8(9))
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint16, sizeSel, batchRaw uint8) {
		n := int(nRaw)%500 + 1
		sizes := []int{1, 8, 13, 24, 32, 40, 64, 96}
		recordSize := sizes[int(sizeSel)%len(sizes)]
		batch := int(batchRaw)%9 + 1

		db := buildDB(n, recordSize, seed)
		words := selectorWords(batchSelectors(n, batch, seed+17))

		want := make([][]byte, batch)
		for q := range want {
			want[q] = make([]byte, recordSize)
			if err := Accumulate(want[q], db, recordSize, words[q]); err != nil {
				t.Fatalf("Accumulate[%d]: %v", q, err)
			}
		}
		for _, workers := range []int{1, 3} {
			accs := make([][]byte, batch)
			for q := range accs {
				accs[q] = make([]byte, recordSize)
			}
			if err := AccumulateBatchWorkers(accs, db, recordSize, words, workers); err != nil {
				t.Fatalf("AccumulateBatchWorkers(workers=%d): %v", workers, err)
			}
			for q := range accs {
				if !bytes.Equal(accs[q], want[q]) {
					t.Fatalf("workers=%d selector %d: fused != independent", workers, q)
				}
			}
		}

		// A selector with a bit set beyond the record count must be
		// rejected, never silently read out of bounds.
		if n%64 != 0 {
			bad := bitvec.New((n/64 + 1) * 64)
			bad.Set(n)
			accs := [][]byte{make([]byte, recordSize)}
			if err := AccumulateBatch(accs, db, recordSize, [][]uint64{bad.Words()}); err == nil {
				t.Fatal("selector with tail bit beyond record count accepted")
			}
		}
	})
}

// benchmarkAccumulateBatch measures the fused pass at a given batch
// width; with perQuery=true it runs B independent scans instead, so the
// two benchmarks bracket the fusion win.
func benchmarkAccumulateBatch(b *testing.B, numRecords, recordSize, batch, workers int, perQuery bool) {
	db := buildDB(numRecords, recordSize, 1)
	words := selectorWords(batchSelectors(numRecords, batch, 2))
	accs := make([][]byte, batch)
	for q := range accs {
		accs[q] = make([]byte, recordSize)
	}
	b.SetBytes(int64(numRecords * recordSize))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if perQuery {
			for q := 0; q < batch && err == nil; q++ {
				err = Accumulate(accs[q], db, recordSize, words[q])
			}
		} else {
			err = AccumulateBatchWorkers(accs, db, recordSize, words, workers)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAccumulateBatch32B8(b *testing.B) { benchmarkAccumulateBatch(b, 1<<16, 32, 8, 1, false) }
func BenchmarkAccumulateBatch32B8PerQuery(b *testing.B) {
	benchmarkAccumulateBatch(b, 1<<16, 32, 8, 1, true)
}
func BenchmarkAccumulateBatch32B32(b *testing.B) {
	benchmarkAccumulateBatch(b, 1<<16, 32, 32, 1, false)
}
func BenchmarkAccumulateBatch32B8Par(b *testing.B) {
	benchmarkAccumulateBatch(b, 1<<16, 32, 8, 4, false)
}

// BenchmarkAccumulateWideAllocs exists to surface allocs/op (must be 0
// after the stack-scratch fix) in the standard bench report.
func BenchmarkAccumulateWideAllocs(b *testing.B) {
	db := buildDB(1<<14, 64, 1)
	sel := randomSelector(1<<14, 2).Words()
	acc := make([]byte, 64)
	b.SetBytes(int64(1 << 14 * 64))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Accumulate(acc, db, 64, sel); err != nil {
			b.Fatal(err)
		}
	}
}
