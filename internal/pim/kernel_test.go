package pim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"github.com/impir/impir/internal/xorop"
)

// DPXORArgs is the per-DPU argument block of the DPXOR kernel. Offsets
// are MRAM byte offsets within the executing DPU.
type DPXORArgs struct {
	// DBOffset is where this DPU's database chunk begins.
	DBOffset uint64
	// NumRecords is the number of records in this DPU's chunk.
	NumRecords uint64
	// RecordSize is the record size in bytes (multiple of 8, ≤ 2048).
	RecordSize uint64
	// SelOffset is where the packed selector bits for the chunk begin.
	SelOffset uint64
	// OutOffset is where the master tasklet writes the chunk subresults
	// (NumSelectors × RecordSize bytes, one per selector stream).
	OutOffset uint64
	// NumSelectors is the number of fused selector streams this launch
	// carries (the batch width B). Stream q's packed bits live at
	// SelOffset + q×(NumRecords/8) and its subresult is written to
	// OutOffset + q×RecordSize. 0 means 1 (a pre-fusion argument block).
	NumSelectors uint64
}

const argsSize = 6 * 8

// batch returns the effective selector-stream count (≥ 1).
func (a DPXORArgs) batch() int {
	if a.NumSelectors == 0 {
		return 1
	}
	return int(a.NumSelectors)
}

// Marshal encodes the argument block for System.Launch.
func (a DPXORArgs) Marshal() []byte {
	out := make([]byte, argsSize)
	binary.LittleEndian.PutUint64(out[0:], a.DBOffset)
	binary.LittleEndian.PutUint64(out[8:], a.NumRecords)
	binary.LittleEndian.PutUint64(out[16:], a.RecordSize)
	binary.LittleEndian.PutUint64(out[24:], a.SelOffset)
	binary.LittleEndian.PutUint64(out[32:], a.OutOffset)
	binary.LittleEndian.PutUint64(out[40:], uint64(a.batch()))
	return out
}

func parseArgs(raw []byte) (DPXORArgs, error) {
	if len(raw) != argsSize {
		return DPXORArgs{}, fmt.Errorf("pim: args block is %d bytes, want %d", len(raw), argsSize)
	}
	return DPXORArgs{
		DBOffset:     binary.LittleEndian.Uint64(raw[0:]),
		NumRecords:   binary.LittleEndian.Uint64(raw[8:]),
		RecordSize:   binary.LittleEndian.Uint64(raw[16:]),
		SelOffset:    binary.LittleEndian.Uint64(raw[24:]),
		OutOffset:    binary.LittleEndian.Uint64(raw[32:]),
		NumSelectors: binary.LittleEndian.Uint64(raw[40:]),
	}, nil
}

// Validate checks the argument block against kernel limits.
func (a DPXORArgs) Validate() error {
	switch {
	case a.RecordSize == 0 || a.RecordSize%DMAAlign != 0:
		return fmt.Errorf("pim: record size %d must be a positive multiple of %d", a.RecordSize, DMAAlign)
	case a.RecordSize > DMAMaxTransfer:
		return fmt.Errorf("pim: record size %d exceeds one DMA transfer (%d)", a.RecordSize, DMAMaxTransfer)
	case a.DBOffset%DMAAlign != 0 || a.SelOffset%DMAAlign != 0 || a.OutOffset%DMAAlign != 0:
		return errors.New("pim: MRAM offsets must be 8-byte aligned")
	case a.NumRecords%64 != 0:
		// Selector words must not straddle tasklet boundaries; the engine
		// pads chunks to 64-record multiples.
		return fmt.Errorf("pim: record count %d must be a multiple of 64", a.NumRecords)
	case a.NumSelectors > MaxSelectorsPerLaunch:
		return fmt.Errorf("pim: %d selector streams exceed the per-launch limit %d",
			a.NumSelectors, MaxSelectorsPerLaunch)
	}
	return nil
}

// DPXOR is the dpXOR kernel. One instance is stateless and reusable
// across launches and DPUs.
type DPXOR struct{}

var _ Kernel = DPXOR{}

// Name implements Kernel.
func (DPXOR) Name() string { return "dpxor" }

// Run implements Kernel. Every tasklet scans an interleaved share of
// the DPU's records (stage 1 of the parallel reduction), accumulating
// one partial per fused selector stream, and tasklet 0 folds the
// partials and writes the per-stream DPU subresults to MRAM (stage 2).
// A fused launch (NumSelectors > 1) DMAs each MRAM record sub-chunk
// ONCE and XORs it into every selecting stream's partial — the B-query
// pass costs one chunk's worth of MRAM traffic instead of B.
func (k DPXOR) Run(ctx *TaskletCtx) error {
	args, err := parseArgs(ctx.Args())
	if err != nil {
		return err
	}
	if err := args.Validate(); err != nil {
		return err
	}
	recordSize := int(args.RecordSize)
	numRecords := int(args.NumRecords)
	b := args.batch()
	t := ctx.NumTasklets()
	tid := ctx.TaskletID()

	// Partition records across tasklets in 64-record groups so each
	// selector word belongs to exactly one tasklet: B_t = ⌈B_d/T⌉
	// rounded to 64 (Alg. 1 line 5).
	groups := numRecords / 64
	groupsPerTasklet := (groups + t - 1) / t
	firstGroup := tid * groupsPerTasklet
	lastGroup := firstGroup + groupsPerTasklet
	if lastGroup > groups {
		lastGroup = groups
	}

	partials, err := ctx.SharedWRAM("dpxor.partials", t*b*recordSize)
	if err != nil {
		return err
	}
	accs := make([][]byte, b)
	for q := 0; q < b; q++ {
		off := (tid*b + q) * recordSize
		accs[q] = partials[off : off+recordSize]
	}

	if firstGroup < lastGroup {
		if err := k.scanRange(ctx, args, accs, firstGroup, lastGroup); err != nil {
			return err
		}
	}

	// Stage 2: wait for every tasklet's partials, then the master tasklet
	// folds them per stream (Alg. 1 MASTERXOR).
	if !ctx.Barrier() {
		return errors.New("pim: launch aborted")
	}
	if tid != 0 {
		return nil
	}
	out, err := ctx.AllocWRAM(recordSize)
	if err != nil {
		return err
	}
	for q := 0; q < b; q++ {
		for i := range out {
			out[i] = 0
		}
		for i := 0; i < t; i++ {
			off := (i*b + q) * recordSize
			if err := xorop.XORBytes(out, partials[off:off+recordSize]); err != nil {
				return err
			}
		}
		ctx.ChargeCycles(int64(t) * int64(recordSize/8) * cyclesPerWordXOR)
		if err := writeMRAMChunked(ctx, int(args.OutOffset)+q*recordSize, out); err != nil {
			return err
		}
	}
	return nil
}

// scanRange processes the tasklet's 64-record groups: for each group, DMA
// the B selector words and — unless every stream's word is zero — the
// records into WRAM once, then XOR-accumulate the selected records into
// each stream's partial.
func (DPXOR) scanRange(ctx *TaskletCtx, args DPXORArgs, accs [][]byte, firstGroup, lastGroup int) error {
	recordSize := int(args.RecordSize)
	b := args.batch()
	// Stream q's selector bits start at SelOffset + q × stride.
	selStride := int(args.NumRecords) / 8

	// Records are fetched in sub-chunks of ≤ one DMA transfer.
	recsPerDMA := recordsPerDMA(recordSize)

	recBuf, err := ctx.AllocWRAM(recsPerDMA * recordSize)
	if err != nil {
		return err
	}
	// Selector words are fetched in blocks to amortise DMA setup. The
	// block shrinks as the batch widens so the combined B-stream buffer
	// keeps the historical 512-byte WRAM footprint.
	selBlockGroups := selBlockGroupsFor(b)
	selBuf, err := ctx.AllocWRAM(b * selBlockGroups * 8)
	if err != nil {
		return err
	}

	for blockStart := firstGroup; blockStart < lastGroup; blockStart += selBlockGroups {
		blockEnd := blockStart + selBlockGroups
		if blockEnd > lastGroup {
			blockEnd = lastGroup
		}
		nWords := blockEnd - blockStart
		for q := 0; q < b; q++ {
			dst := selBuf[q*selBlockGroups*8:]
			if err := ctx.ReadMRAM(int(args.SelOffset)+q*selStride+blockStart*8, dst[:nWords*8]); err != nil {
				return err
			}
		}

		for g := 0; g < nWords; g++ {
			group := blockStart + g
			var union uint64
			for q := 0; q < b; q++ {
				union |= binary.LittleEndian.Uint64(selBuf[(q*selBlockGroups+g)*8:])
			}
			ctx.ChargeCycles(int64(b) * 64 * cyclesRecordCheck)
			if union == 0 {
				// No stream selects any record of this group: the DMA
				// fetch of the records can be skipped entirely. (This
				// leaks only the server's own pseudorandom shares, never
				// the query.)
				continue
			}
			baseRecord := group * 64
			for sub := 0; sub < 64; sub += recsPerDMA {
				subUnion := union >> uint(sub)
				if recsPerDMA < 64 {
					subUnion &= (1 << uint(recsPerDMA)) - 1
				}
				if subUnion == 0 {
					continue
				}
				// ONE record DMA serves every stream of the batch.
				recOff := int(args.DBOffset) + (baseRecord+sub)*recordSize
				if err := ctx.ReadMRAM(recOff, recBuf[:recsPerDMA*recordSize]); err != nil {
					return err
				}
				for q := 0; q < b; q++ {
					word := binary.LittleEndian.Uint64(selBuf[(q*selBlockGroups+g)*8:])
					subSel := word >> uint(sub)
					if recsPerDMA < 64 {
						subSel &= (1 << uint(recsPerDMA)) - 1
					}
					if subSel == 0 {
						continue
					}
					sel := [1]uint64{subSel}
					if err := xorop.Accumulate(accs[q], recBuf[:recsPerDMA*recordSize], recordSize, sel[:]); err != nil {
						return err
					}
					setBits := bits.OnesCount64(subSel)
					ctx.ChargeCycles(int64(setBits) * int64(recordSize/8) * cyclesPerWordXOR)
				}
			}
		}
	}
	return nil
}

// writeMRAMChunked writes a WRAM buffer to MRAM honouring the DMA
// transfer-size limit.
func writeMRAMChunked(ctx *TaskletCtx, offset int, buf []byte) error {
	for off := 0; off < len(buf); off += DMAMaxTransfer {
		end := off + DMAMaxTransfer
		if end > len(buf) {
			end = len(buf)
		}
		if err := ctx.WriteMRAM(offset+off, buf[off:end]); err != nil {
			return err
		}
	}
	return nil
}

// simulate is the oracle for ReplayCost: it answers one fused group on a
// cluster of geometry g by running the dpXOR kernel on a fresh System
// — preloading the chunks (resident) or staging them pass by pass
// (streaming), scattering the selector streams, launching, gathering and
// folding the subresults on the host — and returns the answers with the
// cost the simulator charged each phase of each pass. db holds the
// cluster's records from global record 0; records past its end are zero.
func simulate(cfg Config, g Geometry, db []byte, sels [][]uint64) ([][]byte, []PassCost, error) {
	sys, err := NewSystem(cfg)
	if err != nil {
		return nil, nil, err
	}
	rs, nq := g.RecordSize, len(sels)
	dpuIDs := make([]int, g.DPUs)
	for i := range dpuIDs {
		dpuIDs[i] = g.FirstDPU + i
	}
	chunk := func(startRecord, count int) []byte {
		out := make([]byte, count*rs)
		if start := startRecord * rs; start < len(db) {
			copy(out, db[start:])
		}
		return out
	}
	if g.Resident() {
		for i, id := range dpuIDs {
			if err := sys.Preload(id, 0, chunk(i*g.RecordsPerDPU, g.RecordsPerDPU)); err != nil {
				return nil, nil, err
			}
		}
	}
	// MRAM layout: [db chunk | nq selector streams | nq subresults].
	selOffset := g.PassRecords * rs
	outOffset := selOffset + (nq*g.PassRecords/8+7)&^7
	out := make([][]byte, nq)
	for q := range out {
		out[q] = make([]byte, rs)
	}
	var costs []PassCost
	for base := 0; base < g.RecordsPerDPU; base += g.PassRecords {
		n := min(g.PassRecords, g.RecordsPerDPU-base)
		var pc PassCost
		args := make([][]byte, g.DPUs)
		selChunks := make([][]byte, g.DPUs)
		dbChunks := make([][]byte, g.DPUs)
		for i := range dpuIDs {
			recStart := i*g.RecordsPerDPU + base
			args[i] = DPXORArgs{NumRecords: uint64(n), RecordSize: uint64(rs),
				SelOffset: uint64(selOffset), OutOffset: uint64(outOffset), NumSelectors: uint64(nq)}.Marshal()
			// Stream q's bits for this DPU's pass, packed back to back.
			selChunks[i] = make([]byte, nq*n/8)
			for q, sel := range sels {
				for w := 0; w < n/64; w++ {
					if gw := recStart/64 + w; gw < len(sel) {
						binary.LittleEndian.PutUint64(selChunks[i][q*n/8+w*8:], sel[gw])
					}
				}
			}
			if !g.Resident() {
				dbChunks[i] = chunk(recStart, n)
			}
		}
		if !g.Resident() {
			if pc.Stage, err = sys.Scatter(dpuIDs, 0, dbChunks); err != nil {
				return nil, nil, err
			}
		}
		if pc.Scatter, err = sys.Scatter(dpuIDs, selOffset, selChunks); err != nil {
			return nil, nil, err
		}
		if pc.Launch, err = sys.Launch(dpuIDs, DPXOR{}, args); err != nil {
			return nil, nil, err
		}
		subs, gather, err := sys.Gather(dpuIDs, outOffset, nq*rs)
		if err != nil {
			return nil, nil, err
		}
		pc.Gather = gather
		for _, sub := range subs {
			for q := range out {
				if err := xorop.XORBytes(out[q], sub[q*rs:(q+1)*rs]); err != nil {
					return nil, nil, err
				}
				pc.Folds++
			}
		}
		costs = append(costs, pc)
	}
	return out, costs, nil
}
