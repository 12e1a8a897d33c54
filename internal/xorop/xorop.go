// Package xorop implements the wide XOR and selective-XOR kernels at the
// heart of multi-server PIR's dpXOR stage.
//
// The server-side linear operation is an inner product over F₂: given a
// database of N fixed-size records and an N-bit selector vector (one
// party's DPF share), accumulate the XOR of every record whose selector
// bit is set. The paper's CPU baseline accelerates this with AVX-256; in
// pure Go the equivalent is processing records in 64-bit words and
// consuming selectors a machine word at a time, skipping 64 records per
// zero word and bit-scanning set words. The width-1 kernels for 32- and
// 64-byte records keep the whole accumulator in four or eight uint64
// registers; other multiples of 8 bytes accumulate into a stack buffer,
// four words (256 bits) per loop iteration.
//
// The fused kernel (AccumulateBatch) answers B selectors in one scan
// through a subset table: per group of k ≤ 8 selectors, an 8×8 bit transpose turns the selector words into one
// k-bit index per record, each selected record is XORed once into
// table[index] with crypto/subtle.XORBytes (assembly on amd64 and
// arm64), and a fold gives selector q the XOR of the slots whose index
// has bit q set. A record costs ⌈B/8⌉ XORs instead of B/2 on average.
package xorop

import (
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Accumulate XORs into acc every record of db whose selector bit is set.
//
// db holds len(db)/recordSize records of recordSize bytes each; acc must
// be exactly recordSize bytes; sel is a packed little-endian bit vector
// (bit i = word i/64, position i%64) with at least one bit per record and
// zeroed tail bits beyond the record count. (Scan is the entry that
// ignores tail bits instead.)
//
// Dispatches to a record-size-specialised kernel when one exists.
func Accumulate(acc, db []byte, recordSize int, sel []uint64) error {
	if err := validate(acc, db, recordSize, sel); err != nil {
		return err
	}
	accumulate(acc, db, recordSize, sel)
	return nil
}

func accumulate(acc, db []byte, recordSize int, sel []uint64) {
	switch {
	case recordSize == 32:
		accumulate32(acc, db, sel)
	case recordSize == 64:
		accumulate64(acc, db, sel)
	case recordSize%8 == 0:
		accumulateWide(acc, db, recordSize, sel)
	default:
		accumulateScalar(acc, db, recordSize, sel)
	}
}

// AccumulateScalar is the straightforward reference implementation:
// byte-at-a-time XOR guarded by a per-record branch (Algorithm 1, lines
// 32–36). Exported so benchmarks can compare it against the wide kernels.
func AccumulateScalar(acc, db []byte, recordSize int, sel []uint64) error {
	if err := validate(acc, db, recordSize, sel); err != nil {
		return err
	}
	accumulateScalar(acc, db, recordSize, sel)
	return nil
}

// validate checks an Accumulate call: checkShape, plus zero selector
// bits beyond the record count, since a selector of exactly db's records
// that names one it lacks is the caller's bug. Scan, whose selectors
// span a larger index space, checks only the shape.
func validate(acc, db []byte, recordSize int, sel []uint64) error {
	if err := checkShape(acc, db, recordSize, sel); err != nil {
		return err
	}
	numRecords := len(db) / recordSize
	if tail := numRecords % 64; tail != 0 {
		if sel[numRecords/64]>>uint(tail) != 0 {
			return fmt.Errorf("xorop: selector has set bits beyond record %d", numRecords)
		}
	}
	for w := (numRecords + 63) / 64; w < len(sel); w++ {
		if sel[w] != 0 {
			return fmt.Errorf("xorop: selector word %d set beyond record count", w)
		}
	}
	return nil
}

// checkShape checks the geometry of a scan: a positive record size, a
// whole number of records, an accumulator of one record and a selector
// with at least one bit per record.
func checkShape(acc, db []byte, recordSize int, sel []uint64) error {
	if recordSize <= 0 {
		return fmt.Errorf("xorop: record size %d must be positive", recordSize)
	}
	if len(acc) != recordSize {
		return fmt.Errorf("xorop: accumulator length %d != record size %d", len(acc), recordSize)
	}
	if len(db)%recordSize != 0 {
		return fmt.Errorf("xorop: database length %d not a multiple of record size %d", len(db), recordSize)
	}
	numRecords := len(db) / recordSize
	if len(sel)*64 < numRecords {
		return fmt.Errorf("xorop: selector holds %d bits for %d records", len(sel)*64, numRecords)
	}
	return nil
}

// recordWords returns the selector words that cover numRecords records
// and the mask of the last word's bits that name one. Every kernel reads
// only these, so bits beyond the records never reach past db.
func recordWords(sel []uint64, numRecords int) ([]uint64, uint64) {
	return sel[:(numRecords+63)/64], lastWordMask(numRecords)
}

// lastWordMask masks the bits of a selector's last covering word that
// name one of numRecords records.
func lastWordMask(numRecords int) uint64 {
	if r := numRecords % 64; r != 0 {
		return 1<<uint(r) - 1
	}
	return ^uint64(0)
}

func accumulateScalar(acc, db []byte, recordSize int, sel []uint64) {
	numRecords := len(db) / recordSize
	for i := 0; i < numRecords; i++ {
		if sel[i>>6]>>(uint(i)&63)&1 == 0 {
			continue
		}
		rec := db[i*recordSize : (i+1)*recordSize]
		for j := range acc {
			acc[j] ^= rec[j]
		}
	}
}

// accumulate32 is the hot kernel for the paper's 32-byte (SHA-256 hash)
// records: four 64-bit accumulators cover a full record, and set selector
// bits are located with a trailing-zeros scan so zero words skip 64
// records with a single compare.
func accumulate32(acc, db []byte, sel []uint64) {
	le := binary.LittleEndian
	sel, lastMask := recordWords(sel, len(db)/32)
	last := len(sel) - 1
	var a0, a1, a2, a3 uint64
	for w, word := range sel {
		if w == last {
			word &= lastMask
		}
		if word == 0 {
			continue
		}
		base := w << 6
		for word != 0 {
			i := base + bits.TrailingZeros64(word)
			word &= word - 1
			rec := db[i<<5 : i<<5+32 : i<<5+32]
			a0 ^= le.Uint64(rec[0:8])
			a1 ^= le.Uint64(rec[8:16])
			a2 ^= le.Uint64(rec[16:24])
			a3 ^= le.Uint64(rec[24:32])
		}
	}
	le.PutUint64(acc[0:8], le.Uint64(acc[0:8])^a0)
	le.PutUint64(acc[8:16], le.Uint64(acc[8:16])^a1)
	le.PutUint64(acc[16:24], le.Uint64(acc[16:24])^a2)
	le.PutUint64(acc[24:32], le.Uint64(acc[24:32])^a3)
}

// accumulate64 is accumulate32's twin for 64-byte records: eight 64-bit
// accumulators in registers cover a full record, where accumulateWide
// would keep them in memory and load and store each per record.
func accumulate64(acc, db []byte, sel []uint64) {
	le := binary.LittleEndian
	sel, lastMask := recordWords(sel, len(db)/64)
	last := len(sel) - 1
	var a0, a1, a2, a3, a4, a5, a6, a7 uint64
	for w, word := range sel {
		if w == last {
			word &= lastMask
		}
		if word == 0 {
			continue
		}
		base := w << 6
		for word != 0 {
			i := base + bits.TrailingZeros64(word)
			word &= word - 1
			rec := db[i<<6 : i<<6+64 : i<<6+64]
			a0 ^= le.Uint64(rec[0:8])
			a1 ^= le.Uint64(rec[8:16])
			a2 ^= le.Uint64(rec[16:24])
			a3 ^= le.Uint64(rec[24:32])
			a4 ^= le.Uint64(rec[32:40])
			a5 ^= le.Uint64(rec[40:48])
			a6 ^= le.Uint64(rec[48:56])
			a7 ^= le.Uint64(rec[56:64])
		}
	}
	le.PutUint64(acc[0:8], le.Uint64(acc[0:8])^a0)
	le.PutUint64(acc[8:16], le.Uint64(acc[8:16])^a1)
	le.PutUint64(acc[16:24], le.Uint64(acc[16:24])^a2)
	le.PutUint64(acc[24:32], le.Uint64(acc[24:32])^a3)
	le.PutUint64(acc[32:40], le.Uint64(acc[32:40])^a4)
	le.PutUint64(acc[40:48], le.Uint64(acc[40:48])^a5)
	le.PutUint64(acc[48:56], le.Uint64(acc[48:56])^a6)
	le.PutUint64(acc[56:64], le.Uint64(acc[56:64])^a7)
}

// wideStackWords caps the record width (in 64-bit words) that
// accumulateWide can scratch on the stack: 64 words = 512-byte records,
// covering every record size the paper and bench configs use.
const wideStackWords = 64

// accumulateWide handles any record size that is a multiple of 8 bytes,
// unrolling the per-record XOR four words (256 bits) per iteration. For
// records up to wideStackWords×8 bytes the scratch accumulator lives on
// the stack, so the hot loop performs zero heap allocations.
func accumulateWide(acc, db []byte, recordSize int, sel []uint64) {
	le := binary.LittleEndian
	words := recordSize / 8
	var stack [wideStackWords]uint64
	var tmp []uint64
	if words <= wideStackWords {
		tmp = stack[:words]
	} else {
		tmp = make([]uint64, words)
	}
	sel, lastMask := recordWords(sel, len(db)/recordSize)
	last := len(sel) - 1
	for w, word := range sel {
		if w == last {
			word &= lastMask
		}
		if word == 0 {
			continue
		}
		base := w << 6
		for word != 0 {
			i := base + bits.TrailingZeros64(word)
			word &= word - 1
			rec := db[i*recordSize:]
			j := 0
			for ; j+4 <= words; j += 4 {
				tmp[j] ^= le.Uint64(rec[j*8:])
				tmp[j+1] ^= le.Uint64(rec[j*8+8:])
				tmp[j+2] ^= le.Uint64(rec[j*8+16:])
				tmp[j+3] ^= le.Uint64(rec[j*8+24:])
			}
			for ; j < words; j++ {
				tmp[j] ^= le.Uint64(rec[j*8:])
			}
		}
	}
	for j := 0; j < words; j++ {
		le.PutUint64(acc[j*8:], le.Uint64(acc[j*8:])^tmp[j])
	}
}

// XORBytes sets dst = dst ⊕ src with crypto/subtle.XORBytes. The slices
// must be the same length. Used to fold partial results (scan workers'
// partials, DPU subresults, the final two-server reconstruction).
func XORBytes(dst, src []byte) error {
	if len(dst) != len(src) {
		return fmt.Errorf("xorop: xor length mismatch %d != %d", len(dst), len(src))
	}
	subtle.XORBytes(dst, dst, src)
	return nil
}

// CountOps reports the number of XOR byte-operations and bytes touched by
// an Accumulate call with the given parameters — the inputs to the
// roofline model's operational-intensity estimate (Figure 3b).
func CountOps(recordSize, setBits, numRecords int) (ops, bytesTouched int64) {
	// Every record's selector bit is read (numRecords/8 bytes of selector
	// stream) and every selected record is loaded and XORed.
	ops = int64(setBits) * int64(recordSize)
	bytesTouched = int64(setBits)*int64(recordSize) + int64(numRecords)/8
	return ops, bytesTouched
}
