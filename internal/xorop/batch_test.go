package xorop

import (
	"bytes"
	"crypto/subtle"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
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
// Accumulate calls, for every record size and table width and for both
// the serial and parallel partitionings.
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
		// Subset-table geometries: the scan_large database, one
		// kv_sharded_mixed shard, batches crossing the 8-selector group
		// edge, and a range too short for a full k = 8 table.
		{16384, 4096, 8},
		{12112, 104, 6},
		{3000, 40, 9},
		{2500, 24, 17},
		{200, 64, 8},
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

// TestScan: the engines' one functional scan must return exactly B
// independent Accumulate results, on any thread budget, and reject what
// the fused kernel rejects.
func TestScan(t *testing.T) {
	const n, recordSize = 1000, 40
	db := buildDB(n, recordSize, 11)
	for _, batch := range []int{1, 3, 9} {
		sels := batchSelectors(n, batch, 12)
		for _, threads := range []int{1, 4} {
			got, err := Scan(db, recordSize, selectorWords(sels), threads)
			if err != nil {
				t.Fatal(err)
			}
			for q, sel := range sels {
				if want := naiveAccumulate(db, recordSize, sel); !bytes.Equal(got[q], want) {
					t.Fatalf("B=%d threads=%d selector %d: scan %x != naive %x", batch, threads, q, got[q][:8], want[:8])
				}
			}
		}
	}
	if _, err := Scan(db, recordSize, [][]uint64{make([]uint64, 1)}, 1); err == nil {
		t.Error("Scan accepted a selector shorter than the database")
	}

	// Selectors set on all 1024 bits of the padded index space over 700
	// records: every width-1 kernel (scalar, 32-byte, wide) and the
	// fused table must read the first 700 bits only.
	for _, rs := range []int{1, 32, 104} {
		db := buildDB(700, rs, 13)
		want := make([]byte, rs)
		for i := range 700 {
			subtle.XORBytes(want, want, db[i*rs:(i+1)*rs])
		}
		for _, batch := range []int{1, 3} {
			sels := make([][]uint64, batch)
			for q := range sels {
				sels[q] = make([]uint64, 16)
				for w := range sels[q] {
					sels[q][w] = ^uint64(0)
				}
			}
			got, err := Scan(db, rs, sels, 2)
			if err != nil {
				t.Fatal(err)
			}
			for q := range got {
				if !bytes.Equal(got[q], want) || sels[q][15] != ^uint64(0) {
					t.Fatalf("rs=%d B=%d selector %d: read a bit beyond the 700 records, or wrote the selector", rs, batch, q)
				}
			}
		}
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

// TestAccumulateBatchTableAllocs pins the subset-table kernel's
// allocations: each worker allocates one table per pass, so neither the
// 64 groups of 64 records per worker nor the three selector groups of a
// width-17 pass may add any.
func TestAccumulateBatchTableAllocs(t *testing.T) {
	const n, recordSize = 4096, 4096
	db := buildDB(n, recordSize, 9)
	for _, tt := range []struct{ batch, workers, want int }{
		{8, 1, 1}, {17, 1, 1}, {8, 2, 12}, {17, 2, 12},
	} {
		words := selectorWords(batchSelectors(n, tt.batch, 10))
		accs := NewAccumulators(tt.batch, recordSize)
		allocs := testing.AllocsPerRun(5, func() {
			if err := AccumulateBatchWorkers(accs, db, recordSize, words, tt.workers); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > float64(tt.want) {
			t.Errorf("B=%d workers=%d: %.1f allocations per pass, want ≤ %d",
				tt.batch, tt.workers, allocs, tt.want)
		}
	}
}

// FuzzAccumulateBatch differentially fuzzes the fused kernel against B
// independent Accumulate calls over random record sizes, record counts
// (up to 2 MiB of records), batch widths 1…33 (across the subset
// table's 8-selector group edges), worker counts and selector contents
// — including the tail-bit rejection path. Scan, given the same records
// and selectors that span the padded 2^d domain with random bits beyond
// the records, must answer as Accumulate over the zero-padded database
// does and leave every selector as it was.
func FuzzAccumulateBatch(f *testing.F) {
	f.Add(int64(1), uint16(100), uint8(0), uint8(4))
	f.Add(int64(7), uint16(1), uint8(3), uint8(1))
	f.Add(int64(99), uint16(400), uint8(5), uint8(9))
	f.Add(int64(3), uint16(4000), uint8(8), uint8(16))
	f.Add(int64(5), uint16(63), uint8(9), uint8(32))
	// A 700 × 32 B database and a 12,112 × 104 B kv_sharded_mixed shard.
	f.Add(int64(11), uint16(699), uint8(4), uint8(1))
	f.Add(int64(12), uint16(699), uint8(4), uint8(8))
	f.Add(int64(13), uint16(12111), uint8(8), uint8(1))
	f.Add(int64(14), uint16(12111), uint8(8), uint8(12))
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint16, sizeSel, batchRaw uint8) {
		sizes := []int{1, 8, 13, 24, 32, 40, 64, 96, 104, 4096}
		recordSize := sizes[int(sizeSel)%len(sizes)]
		n := min(int(nRaw)%16384+1, 2<<20/recordSize)
		batch := int(batchRaw)%33 + 1

		db := buildDB(n, recordSize, seed)
		words := selectorWords(batchSelectors(n, batch, seed+17))

		want := make([][]byte, batch)
		for q := range want {
			want[q] = make([]byte, recordSize)
			if err := Accumulate(want[q], db, recordSize, words[q]); err != nil {
				t.Fatalf("Accumulate[%d]: %v", q, err)
			}
		}
		for _, workers := range []int{1, 2, 3} {
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

		padded := 1 << bits.Len(uint(n-1))
		paddedDB := append(db[:len(db):len(db)], make([]byte, (padded-n)*recordSize)...)
		long := selectorWords(batchSelectors(padded, batch, seed+29))
		before := make([][]uint64, batch)
		for q := range long {
			before[q] = slices.Clone(long[q])
		}
		for _, threads := range []int{1, 2, 3} {
			got, err := Scan(db, recordSize, long, threads)
			if err != nil {
				t.Fatalf("Scan(threads=%d): %v", threads, err)
			}
			for q := range got {
				want := make([]byte, recordSize)
				if err := Accumulate(want, paddedDB, recordSize, long[q]); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got[q], want) {
					t.Fatalf("threads=%d selector %d: scan of %d records != padded oracle", threads, q, n)
				}
				if !slices.Equal(long[q], before[q]) {
					t.Fatalf("threads=%d: Scan changed selector %d", threads, q)
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

// The subset-table kernel at the benchmark's geometries: one scan_large
// database (64 MiB of 4 KiB records, batch 8) and one kv_sharded_mixed
// shard (104-byte bucket records, batch 6), serial and on every core.
func BenchmarkAccumulateBatch4096B8(b *testing.B) { benchmarkWorkers(b, 16384, 4096, 8) }
func BenchmarkAccumulateBatch104B6(b *testing.B)  { benchmarkWorkers(b, 12112, 104, 6) }

func benchmarkWorkers(b *testing.B, numRecords, recordSize, batch int) {
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchmarkAccumulateBatch(b, numRecords, recordSize, batch, workers, false)
		})
	}
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
