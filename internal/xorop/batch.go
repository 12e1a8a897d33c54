package xorop

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
)

// AccumulateBatch is the fused multi-selector dpXOR kernel: it streams the
// database ONCE and accumulates all B selector results along the way,
// turning B independent scans (B× memory traffic) into one scan with B×
// XOR work. Since the scan is memory-bound on every platform the paper
// measures, the fused pass costs barely more than a single query until
// the batch is wide enough to become ALU-bound.
//
// accs[q] receives the XOR of every record whose bit is set in sels[q];
// the same validation rules as Accumulate apply to each selector. The
// pass is parallelised across cores by row-range partitioning in
// 64-record groups: each worker accumulates into private buffers over a
// contiguous range and the partials are folded with XORBytes, so results
// are bit-identical to B independent Accumulate calls regardless of the
// worker count.
func AccumulateBatch(accs [][]byte, db []byte, recordSize int, sels [][]uint64) error {
	return AccumulateBatchWorkers(accs, db, recordSize, sels, runtime.GOMAXPROCS(0))
}

// NewAccumulators returns n zeroed accumulators of recordSize bytes
// backed by one allocation — the accs of one fused pass.
func NewAccumulators(n, recordSize int) [][]byte {
	buf := make([]byte, n*recordSize)
	accs := make([][]byte, n)
	for i := range accs {
		accs[i] = buf[i*recordSize : (i+1)*recordSize : (i+1)*recordSize]
	}
	return accs
}

// AccumulateBatchWorkers is AccumulateBatch with an explicit scan-worker
// count; workers ≤ 1 runs the fused pass serially (the form the engines'
// per-block executors use inside their own parallel grids), and a lone
// selector on one worker runs Accumulate's kernel.
func AccumulateBatchWorkers(accs [][]byte, db []byte, recordSize int, sels [][]uint64, workers int) error {
	if len(accs) != len(sels) {
		return fmt.Errorf("xorop: batch has %d accumulators for %d selectors", len(accs), len(sels))
	}
	if len(accs) == 0 {
		return nil
	}
	for q := range accs {
		if err := validate(accs[q], db, recordSize, sels[q]); err != nil {
			return fmt.Errorf("xorop: batch selector %d: %w", q, err)
		}
	}
	numRecords := len(db) / recordSize
	groups := (numRecords + 63) / 64
	if workers < 1 {
		workers = 1
	}
	if workers > groups {
		workers = groups
	}
	if workers <= 1 {
		if len(accs) == 1 {
			accumulate(accs[0], db, recordSize, sels[0])
		} else {
			accumulateBatchRange(accs, db, recordSize, sels, 0, groups)
		}
		return nil
	}

	// Row-range partitioning: contiguous 64-record group ranges, one per
	// worker, each accumulating into private buffers folded at the end.
	per := (groups + workers - 1) / workers
	partials := make([][][]byte, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * per
		hi := lo + per
		if hi > groups {
			hi = groups
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			priv := make([][]byte, len(accs))
			buf := make([]byte, len(accs)*recordSize)
			for q := range priv {
				priv[q] = buf[q*recordSize : (q+1)*recordSize]
			}
			accumulateBatchRange(priv, db, recordSize, sels, lo, hi)
			partials[w] = priv
		}(w, lo, hi)
	}
	wg.Wait()
	for _, priv := range partials {
		if priv == nil {
			continue
		}
		for q := range accs {
			if err := XORBytes(accs[q], priv[q]); err != nil {
				return err
			}
		}
	}
	return nil
}

// accumulateBatchRange runs the fused serial kernel over the 64-record
// groups [gLo, gHi), dispatching to a record-size-specialised path.
func accumulateBatchRange(accs [][]byte, db []byte, recordSize int, sels [][]uint64, gLo, gHi int) {
	switch {
	case recordSize == 32:
		batchRange32(accs, db, sels, gLo, gHi)
	case recordSize%8 == 0:
		batchRangeWide(accs, db, recordSize, sels, gLo, gHi)
	default:
		batchRangeScalar(accs, db, recordSize, sels, gLo, gHi)
	}
}

// batchRange32 is the fused analogue of accumulate32 for the paper's
// 32-byte records. Per 64-record group the B selector words are OR-ed so
// an all-zero group costs one compare; then each stream scans its own
// word with register-resident lanes — the same inner loop as the solo
// kernel. The group's records span 2 KB, so streams after the first hit
// L1: the database crosses DRAM once per pass while per-stream XOR work
// runs at cache speed.
func batchRange32(accs [][]byte, db []byte, sels [][]uint64, gLo, gHi int) {
	le := binary.LittleEndian
	b := len(sels)
	lanes := make([]uint64, 4*b)
	for w := gLo; w < gHi; w++ {
		var union uint64
		for q := 0; q < b; q++ {
			union |= sels[q][w]
		}
		if union == 0 {
			continue
		}
		base := w << 6
		for q := 0; q < b; q++ {
			word := sels[q][w]
			if word == 0 {
				continue
			}
			l := lanes[q*4 : q*4+4 : q*4+4]
			l0, l1, l2, l3 := l[0], l[1], l[2], l[3]
			for word != 0 {
				tz := bits.TrailingZeros64(word)
				word &= word - 1
				i := base + tz
				rec := db[i<<5 : i<<5+32 : i<<5+32]
				l0 ^= le.Uint64(rec[0:8])
				l1 ^= le.Uint64(rec[8:16])
				l2 ^= le.Uint64(rec[16:24])
				l3 ^= le.Uint64(rec[24:32])
			}
			l[0], l[1], l[2], l[3] = l0, l1, l2, l3
		}
	}
	for q := 0; q < b; q++ {
		acc := accs[q]
		l := lanes[q*4:]
		le.PutUint64(acc[0:8], le.Uint64(acc[0:8])^l[0])
		le.PutUint64(acc[8:16], le.Uint64(acc[8:16])^l[1])
		le.PutUint64(acc[16:24], le.Uint64(acc[16:24])^l[2])
		le.PutUint64(acc[24:32], le.Uint64(acc[24:32])^l[3])
	}
}

// batchRangeWide handles any 8-multiple record size with per-selector
// word lanes, the fused analogue of accumulateWide.
func batchRangeWide(accs [][]byte, db []byte, recordSize int, sels [][]uint64, gLo, gHi int) {
	le := binary.LittleEndian
	b := len(sels)
	words := recordSize / 8
	lanes := make([]uint64, b*words)
	for w := gLo; w < gHi; w++ {
		var union uint64
		for q := 0; q < b; q++ {
			union |= sels[q][w]
		}
		if union == 0 {
			continue
		}
		base := w << 6
		for q := 0; q < b; q++ {
			word := sels[q][w]
			if word == 0 {
				continue
			}
			lane := lanes[q*words : (q+1)*words : (q+1)*words]
			for word != 0 {
				tz := bits.TrailingZeros64(word)
				word &= word - 1
				i := base + tz
				rec := db[i*recordSize:]
				j := 0
				for ; j+4 <= words; j += 4 {
					lane[j] ^= le.Uint64(rec[j*8:])
					lane[j+1] ^= le.Uint64(rec[j*8+8:])
					lane[j+2] ^= le.Uint64(rec[j*8+16:])
					lane[j+3] ^= le.Uint64(rec[j*8+24:])
				}
				for ; j < words; j++ {
					lane[j] ^= le.Uint64(rec[j*8:])
				}
			}
		}
	}
	for q := 0; q < b; q++ {
		acc := accs[q]
		lane := lanes[q*words:]
		for j := 0; j < words; j++ {
			le.PutUint64(acc[j*8:], le.Uint64(acc[j*8:])^lane[j])
		}
	}
}

// batchRangeScalar is the fused fallback for odd record sizes.
func batchRangeScalar(accs [][]byte, db []byte, recordSize int, sels [][]uint64, gLo, gHi int) {
	b := len(sels)
	numRecords := len(db) / recordSize
	for w := gLo; w < gHi; w++ {
		var union uint64
		for q := 0; q < b; q++ {
			union |= sels[q][w]
		}
		if union == 0 {
			continue
		}
		base := w << 6
		for q := 0; q < b; q++ {
			word := sels[q][w]
			if word == 0 {
				continue
			}
			acc := accs[q]
			for word != 0 {
				tz := bits.TrailingZeros64(word)
				word &= word - 1
				i := base + tz
				if i >= numRecords {
					continue
				}
				rec := db[i*recordSize : (i+1)*recordSize]
				for j := range acc {
					acc[j] ^= rec[j]
				}
			}
		}
	}
}

// CountOpsBatch reports the XOR byte-operations and bytes touched by a
// fused AccumulateBatch pass: the database and selector streams are read
// once, while XOR work scales with the total set bits across selectors.
// Compare with B× CountOps to see the traffic the fusion saves.
func CountOpsBatch(recordSize, totalSetBits, numRecords, batch int) (ops, bytesTouched int64) {
	ops = int64(totalSetBits) * int64(recordSize)
	// One streaming read of every selected record's bytes (the union is at
	// most every record) plus B selector streams.
	bytesTouched = int64(numRecords)*int64(recordSize) + int64(batch)*int64(numRecords)/8
	return ops, bytesTouched
}
