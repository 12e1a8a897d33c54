package xorop

import (
	"crypto/subtle"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
)

// AccumulateBatch is the fused multi-selector dpXOR kernel: it streams the
// database ONCE and accumulates all B selector results along the way,
// turning B independent scans (B× memory traffic) into one scan.
//
// accs[q] receives the XOR of every record whose bit is set in sels[q];
// the same validation rules as Accumulate apply to each selector. The
// pass is parallelised across cores by row-range partitioning in
// 64-record groups: each worker accumulates into private buffers over a
// contiguous range and the partials are folded with XORBytes, so results
// are bit-identical to B independent Accumulate calls regardless of the
// worker count.
//
// Every record size goes through a subset table (the "Four Russians"
// trick): selectors are taken in groups of k ≤ 8, and each selected
// record is XORed once per group, into the table slot named by its k
// selector bits, instead of once per selector. XOR work per record falls
// from B/2 record XORs on average to ⌈B/8⌉.
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

// Scan is the one functional scan the server engine's pass answers with
// (internal/engine), whichever pricer models it: it returns the B
// subresults of sels over db, each the XOR of the records its selector
// names. A selector must cover db's N records and may be longer — a
// key's selector spans its 2^d domain, a wire share carries random bits
// there — and Scan reads only its first N bits: words past ⌈N/64⌉ are
// never touched and the last one is masked, so db scans exactly as its
// zero-padded form would, and no selector is copied or written. It runs
// on min(threads, GOMAXPROCS) workers, since each worker fills its own
// subset table and workers beyond the cores buy no parallelism, and
// a lone selector runs on one worker (§5.1: "a single CPU thread for
// each query").
func Scan(db []byte, recordSize int, sels [][]uint64, threads int) ([][]byte, error) {
	if len(sels) == 1 {
		threads = 1
	}
	accs := NewAccumulators(len(sels), recordSize)
	for q := range sels {
		if err := checkShape(accs[q], db, recordSize, sels[q]); err != nil {
			return nil, fmt.Errorf("xorop: batch selector %d: %w", q, err)
		}
	}
	accumulateBatch(accs, db, recordSize, sels, min(threads, runtime.GOMAXPROCS(0)))
	return accs, nil
}

// AccumulateBatchWorkers is AccumulateBatch with an explicit scan-worker
// count; workers ≤ 1 runs the fused pass serially (the form a per-block
// executor, such as the GPU grid oracle, runs inside its own parallel
// grid), and a lone selector on one worker runs Accumulate's kernel. Each
// worker takes its own subset table from tablePools for the pass and
// returns it at the end.
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
	accumulateBatch(accs, db, recordSize, sels, workers)
	return nil
}

// accumulateBatch is the fused pass over selectors already checked to
// cover db.
func accumulateBatch(accs [][]byte, db []byte, recordSize int, sels [][]uint64, workers int) {
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
			batchRangeTable(accs, db, recordSize, sels, 0, groups)
		}
		return
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
			priv := NewAccumulators(len(accs), recordSize)
			batchRangeTable(priv, db, recordSize, sels, lo, hi)
			partials[w] = priv
		}(w, lo, hi)
	}
	wg.Wait()
	for _, priv := range partials {
		if priv == nil {
			continue
		}
		for q := range accs {
			subtle.XORBytes(accs[q], accs[q], priv[q])
		}
	}
}

// The subset table's width k is the largest value the three rules below
// allow, and at least 1.
const (
	// maxGroup caps k at 8, so a record's k selector bits form one byte
	// of an 8×8 bit transpose.
	maxGroup = 8
	// maxTableBytes keeps the 2^k slots cache-resident: 2^8 slots of
	// 4 KiB records are 1 MiB, within one core's L2.
	maxTableBytes = 1 << 20
	// minRecordsPerSlot keeps zeroing and folding the table (about three
	// slot XORs per slot) small next to the range's record XORs; it
	// limits the 128-record blocks of a GPU-style grid to k = 4.
	minRecordsPerSlot = 8
)

// tableWidth returns k for the selectors left, the worker's range length
// in records and the record size.
func tableWidth(selectors, numRecords, recordSize int) int {
	k := 1
	for k < maxGroup && k < selectors &&
		recordSize<<(k+1) <= maxTableBytes &&
		minRecordsPerSlot<<(k+1) <= numRecords {
		k++
	}
	return k
}

// batchRangeTable is the subset-table kernel over the 64-record groups
// [gLo, gHi). For each group of k selectors, every record selected by
// any of them is XORed, with crypto/subtle.XORBytes, into table[idx],
// where bit q of idx is the record's bit in the group's selector q. The
// fold then gives accumulator q the XOR of the slots whose index has bit
// q set. The table comes from tablePools once per call, and every
// selector group clears the slots it uses, the first included.
func batchRangeTable(accs [][]byte, db []byte, recordSize int, sels [][]uint64, gLo, gHi int) {
	numRecords := min(gHi<<6, len(db)/recordSize) - gLo<<6
	kMax := tableWidth(len(sels), numRecords, recordSize)
	table := getTable(recordSize << kMax)
	defer putTable(table)
	for q0 := 0; q0 < len(sels); {
		k := min(kMax, len(sels)-q0)
		slots := (*table)[:recordSize<<k]
		clear(slots)
		fillTable(slots, db, recordSize, sels[q0:q0+k], gLo, gHi)
		foldTable(accs[q0:q0+k], slots, recordSize)
		q0 += k
	}
}

// tablePools holds subset tables by power-of-two size class: class c
// holds tables of 1<<c bytes, for any need in (1<<(c-1), 1<<c]. A pass
// reuses the tables of earlier passes instead of allocating up to
// maxTableBytes per worker per call.
var tablePools [bits.UintSize]sync.Pool

// getTable returns a table of at least n > 1 bytes, with stale contents.
func getTable(n int) *[]byte {
	c := bits.Len(uint(n - 1))
	if t, ok := tablePools[c].Get().(*[]byte); ok {
		return t
	}
	t := make([]byte, 1<<c)
	return &t
}

func putTable(t *[]byte) { tablePools[bits.Len(uint(len(*t)-1))].Put(t) }

// fillTable XORs every record of groups [gLo, gHi) selected by any of
// the k ≤ 8 selectors into the slot its selector bits index. Per 8
// records, one transpose8 turns the k selector bytes into the 8 records'
// indices.
func fillTable(table, db []byte, recordSize int, sels [][]uint64, gLo, gHi int) {
	numRecords := len(db) / recordSize
	last, lastMask := (numRecords+63)/64-1, lastWordMask(numRecords)
	var words [maxGroup]uint64
	for w := gLo; w < gHi; w++ {
		mask := ^uint64(0)
		if w == last {
			mask = lastMask
		}
		var union uint64
		for q, s := range sels {
			words[q] = s[w] & mask
			union |= words[q]
		}
		if union == 0 {
			continue
		}
		base := w << 6
		for j := 0; j < 64; j += 8 {
			present := uint8(union >> j)
			if present == 0 {
				continue
			}
			var m uint64
			for q := range sels {
				m |= (words[q] >> j & 0xff) << (8 * q)
			}
			idx := transpose8(m)
			for present != 0 {
				r := bits.TrailingZeros8(present)
				present &= present - 1
				slot := int(uint8(idx>>(8*r))) * recordSize
				i := (base + j + r) * recordSize
				dst := table[slot : slot+recordSize]
				subtle.XORBytes(dst, dst, db[i:i+recordSize])
			}
		}
	}
}

// transpose8 transposes the 8×8 bit matrix whose row r is byte r of x:
// bit c of byte r moves to bit r of byte c (three delta swaps, Hacker's
// Delight §7-3). Row q holds selector q's bits for 8 records, so byte c
// of the result is record c's table index.
func transpose8(x uint64) uint64 {
	t := (x ^ x>>7) & 0x00AA00AA00AA00AA
	x ^= t ^ t<<7
	t = (x ^ x>>14) & 0x0000CCCC0000CCCC
	x ^= t ^ t<<14
	t = (x ^ x>>28) & 0x00000000F0F0F0F0
	x ^= t ^ t<<28
	return x
}

// foldTable XORs into accs[q] every slot whose index has bit q set. From
// the top bit down, accumulator q takes the upper half of the remaining
// slots, and the upper half is then folded onto the lower half (slots i
// and i+2^q agree on every lower bit): about 2^(k+1) slot XORs in all,
// against k·2^(k−1) for summing each accumulator's slots directly. Slot 0
// (selected by none) is never read.
func foldTable(accs [][]byte, table []byte, recordSize int) {
	slot := func(i int) []byte { return table[i*recordSize : (i+1)*recordSize] }
	for q := len(accs) - 1; q >= 0; q-- {
		half := 1 << q
		acc := accs[q]
		for i := half; i < 2*half; i++ {
			subtle.XORBytes(acc, acc, slot(i))
		}
		for i := 1; i < half; i++ {
			lo := slot(i)
			subtle.XORBytes(lo, lo, slot(i+half))
		}
	}
}
