package xorop

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/impir/impir/internal/bitvec"
)

// buildDB creates n records of the given size with deterministic contents.
func buildDB(n, recordSize int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	db := make([]byte, n*recordSize)
	rng.Read(db)
	return db
}

// naiveAccumulate is an independent oracle implementation.
func naiveAccumulate(db []byte, recordSize int, sel *bitvec.Vector) []byte {
	acc := make([]byte, recordSize)
	n := len(db) / recordSize
	for i := 0; i < n; i++ {
		if sel.Bit(i) {
			for j := 0; j < recordSize; j++ {
				acc[j] ^= db[i*recordSize+j]
			}
		}
	}
	return acc
}

func randomSelector(n int, seed int64) *bitvec.Vector {
	rng := rand.New(rand.NewSource(seed))
	v := bitvec.New(n)
	for i := 0; i < n; i++ {
		v.SetTo(i, rng.Intn(2) == 1)
	}
	return v
}

func TestAccumulateMatchesNaive(t *testing.T) {
	tests := []struct {
		name       string
		numRecords int
		recordSize int
	}{
		{"32B records word-aligned count", 256, 32},
		{"32B records ragged count", 97, 32},
		{"64B records", 130, 64},
		{"8B records", 1000, 8},
		{"24B records (wide, not 32)", 77, 24},
		{"odd record size (scalar)", 50, 13},
		{"single record", 1, 32},
		{"single byte records", 500, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			db := buildDB(tt.numRecords, tt.recordSize, 42)
			sel := randomSelector(tt.numRecords, 43)
			want := naiveAccumulate(db, tt.recordSize, sel)

			acc := make([]byte, tt.recordSize)
			if err := Accumulate(acc, db, tt.recordSize, sel.Words()); err != nil {
				t.Fatalf("Accumulate: %v", err)
			}
			if !bytes.Equal(acc, want) {
				t.Fatalf("Accumulate mismatch:\n got %x\nwant %x", acc, want)
			}

			acc2 := make([]byte, tt.recordSize)
			if err := AccumulateScalar(acc2, db, tt.recordSize, sel.Words()); err != nil {
				t.Fatalf("AccumulateScalar: %v", err)
			}
			if !bytes.Equal(acc2, want) {
				t.Fatalf("AccumulateScalar mismatch")
			}
		})
	}
}

func TestAccumulateXorsIntoExisting(t *testing.T) {
	// Accumulate must XOR into acc, not overwrite it — the PIM kernel
	// relies on this to chain partial results.
	db := buildDB(64, 32, 7)
	sel := randomSelector(64, 8)
	want := naiveAccumulate(db, 32, sel)

	acc := make([]byte, 32)
	for i := range acc {
		acc[i] = 0xAA
		want[i] ^= 0xAA
	}
	if err := Accumulate(acc, db, 32, sel.Words()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(acc, want) {
		t.Fatal("Accumulate overwrote instead of XORing into the accumulator")
	}
}

func TestAccumulateEmptySelector(t *testing.T) {
	db := buildDB(128, 32, 1)
	sel := bitvec.New(128)
	acc := make([]byte, 32)
	if err := Accumulate(acc, db, 32, sel.Words()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(acc, make([]byte, 32)) {
		t.Fatal("empty selector produced nonzero accumulator")
	}
}

func TestAccumulateAllSelected(t *testing.T) {
	const n, size = 200, 32
	db := buildDB(n, size, 2)
	sel := bitvec.New(n)
	for i := 0; i < n; i++ {
		sel.Set(i)
	}
	want := naiveAccumulate(db, size, sel)
	acc := make([]byte, size)
	if err := Accumulate(acc, db, size, sel.Words()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(acc, want) {
		t.Fatal("all-selected accumulate mismatch")
	}
}

func TestAccumulateValidation(t *testing.T) {
	db := buildDB(64, 32, 3)
	sel := bitvec.New(64)
	tests := []struct {
		name string
		call func() error
	}{
		{"zero record size", func() error {
			return Accumulate(make([]byte, 0), db, 0, sel.Words())
		}},
		{"negative record size", func() error {
			return Accumulate(make([]byte, 4), db, -4, sel.Words())
		}},
		{"acc size mismatch", func() error {
			return Accumulate(make([]byte, 16), db, 32, sel.Words())
		}},
		{"db not multiple of record", func() error {
			return Accumulate(make([]byte, 32), db[:100], 32, sel.Words())
		}},
		{"selector too short", func() error {
			return Accumulate(make([]byte, 32), db, 32, nil)
		}},
		{"selector tail bits set", func() error {
			s := bitvec.New(128)
			s.Set(100) // beyond the 64 records in db
			return Accumulate(make([]byte, 32), db, 32, s.Words())
		}},
		{"selector extra word set", func() error {
			words := make([]uint64, 3)
			words[2] = 1
			return Accumulate(make([]byte, 32), db, 32, words)
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.call(); err == nil {
				t.Error("invalid input accepted")
			}
		})
	}
}

func TestXORBytes(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 31, 32, 33, 100} {
		a := buildDB(1, maxInt(n, 1), 10)[:n]
		b := buildDB(1, maxInt(n, 1), 11)[:n]
		want := make([]byte, n)
		for i := range want {
			want[i] = a[i] ^ b[i]
		}
		dst := append([]byte(nil), a...)
		if err := XORBytes(dst, b); err != nil {
			t.Fatalf("XORBytes(n=%d): %v", n, err)
		}
		if !bytes.Equal(dst, want) {
			t.Fatalf("XORBytes(n=%d) mismatch", n)
		}
	}
}

func TestXORBytesLengthMismatch(t *testing.T) {
	if err := XORBytes(make([]byte, 3), make([]byte, 4)); err == nil {
		t.Fatal("XORBytes accepted mismatched lengths")
	}
}

func TestCountOps(t *testing.T) {
	ops, touched := CountOps(32, 500, 1000)
	if ops != 500*32 {
		t.Errorf("ops = %d, want %d", ops, 500*32)
	}
	if touched != 500*32+1000/8 {
		t.Errorf("bytesTouched = %d, want %d", touched, 500*32+1000/8)
	}
}

// Property: the wide kernels agree with the scalar reference on random
// inputs across record sizes.
func TestQuickKernelsAgree(t *testing.T) {
	f := func(seed int64, nRaw uint16, sizeSel uint8) bool {
		n := int(nRaw)%300 + 1
		sizes := []int{1, 8, 13, 24, 32, 40, 64}
		recordSize := sizes[int(sizeSel)%len(sizes)]
		db := buildDB(n, recordSize, seed)
		sel := randomSelector(n, seed+1)

		wide := make([]byte, recordSize)
		if err := Accumulate(wide, db, recordSize, sel.Words()); err != nil {
			return false
		}
		scalar := make([]byte, recordSize)
		if err := AccumulateScalar(scalar, db, recordSize, sel.Words()); err != nil {
			return false
		}
		return bytes.Equal(wide, scalar)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: Accumulate is linear — acc(sel1 ⊕ sel2) == acc(sel1) ⊕ acc(sel2).
// This is precisely why two-server PIR reconstruction works.
func TestQuickLinearity(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := int(nRaw)%200 + 1
		const recordSize = 32
		db := buildDB(n, recordSize, seed)
		s1 := randomSelector(n, seed+1)
		s2 := randomSelector(n, seed+2)

		a1 := make([]byte, recordSize)
		a2 := make([]byte, recordSize)
		if Accumulate(a1, db, recordSize, s1.Words()) != nil {
			return false
		}
		if Accumulate(a2, db, recordSize, s2.Words()) != nil {
			return false
		}
		if XORBytes(a1, a2) != nil {
			return false
		}

		s1.Xor(s2)
		combined := make([]byte, recordSize)
		if Accumulate(combined, db, recordSize, s1.Words()) != nil {
			return false
		}
		return bytes.Equal(a1, combined)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func benchmarkAccumulate(b *testing.B, numRecords, recordSize int, scalar bool) {
	db := buildDB(numRecords, recordSize, 1)
	sel := randomSelector(numRecords, 2)
	acc := make([]byte, recordSize)
	b.SetBytes(int64(numRecords * recordSize))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if scalar {
			err = AccumulateScalar(acc, db, recordSize, sel.Words())
		} else {
			err = Accumulate(acc, db, recordSize, sel.Words())
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAccumulate32Wide(b *testing.B)   { benchmarkAccumulate(b, 1<<16, 32, false) }
func BenchmarkAccumulate32Scalar(b *testing.B) { benchmarkAccumulate(b, 1<<16, 32, true) }
func BenchmarkAccumulate64Wide(b *testing.B)   { benchmarkAccumulate(b, 1<<15, 64, false) }

// BenchmarkScan64Width1 is gateway_open's width-1 pass: one random
// selector over 16,384 records of 64 bytes (1 MiB).
func BenchmarkScan64Width1(b *testing.B) {
	const n, recordSize = 16384, 64
	db := buildDB(n, recordSize, 1)
	sels := [][]uint64{randomSelector(n, 2).Words()}
	b.SetBytes(n * recordSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Scan(db, recordSize, sels, 1); err != nil {
			b.Fatal(err)
		}
	}
}
