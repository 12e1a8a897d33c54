package pim

import (
	"fmt"
	"math/bits"
	"time"
)

// Geometry is how one DPU cluster lays a database out for dpXOR: which
// DPUs hold it, each DPU's share, and how much of that share one launch
// scans.
type Geometry struct {
	// FirstDPU is the global ID of the cluster's first DPU; the cluster
	// is DPUs consecutive IDs, which fixes the ranks its transfers use.
	FirstDPU, DPUs int
	// RecordSize is the record size in bytes (a multiple of 8, ≤ 2048).
	RecordSize int
	// RecordsPerDPU is B_d, each DPU's share of the database in records,
	// a multiple of 64 so selector words never straddle DPUs.
	RecordsPerDPU int
	// PassRecords is how many of them one launch scans, a multiple of
	// 64: all of them when the chunk is MRAM-resident, fewer when the
	// database streams through MRAM pass by pass (§3.3).
	PassRecords int
}

// Resident reports whether each DPU's whole chunk stays in MRAM.
func (g Geometry) Resident() bool { return g.PassRecords == g.RecordsPerDPU }

// Passes is how many launches one fused group takes to cover the chunk.
func (g Geometry) Passes() int { return (g.RecordsPerDPU + g.PassRecords - 1) / g.PassRecords }

// PassCost is what one streaming pass of one fused group costs, phase by
// phase (Alg. 1 ➌–➏), as the tasklet simulator charges it.
type PassCost struct {
	// Stage moves the pass's database chunks host→MRAM; zero when the
	// database is resident.
	Stage Cost
	// Scatter moves the group's selector streams host→MRAM.
	Scatter Cost
	// Launch is the one dpXOR launch: the slowest DPU plus the launch
	// overhead, and every DPU's MRAM↔WRAM DMA bytes.
	Launch Cost
	// Gather moves the per-stream subresults MRAM→host.
	Gather Cost
	// Folds is how many subresult records the host XOR-folds: one per
	// stream per DPU.
	Folds int
}

// ReplayCost returns the per-pass cost of answering the fused group sels
// (one selector per stream, bit i selecting global record i) on a
// cluster of geometry g, without running it. The charges are the kernel's
// own: a 12-cycle check per record per stream, 24 cycles per 8-byte word
// of each selected record, the stage-2 fold of T partials per stream,
// selector-block DMA, one record sub-chunk of DMA per sub-chunk that some
// stream selects from, and the subresult writes. Transfers cost the
// worst rank's volume, as rank-parallel copies do.
func ReplayCost(cfg Config, g Geometry, sels [][]uint64) ([]PassCost, error) {
	switch {
	case len(sels) < 1 || len(sels) > MaxSelectorsPerLaunch:
		return nil, fmt.Errorf("pim: %d selector streams outside [1,%d]", len(sels), MaxSelectorsPerLaunch)
	case g.RecordSize <= 0 || g.RecordSize%DMAAlign != 0 || g.RecordSize > DMAMaxTransfer:
		return nil, fmt.Errorf("pim: record size %d must be a positive multiple of %d ≤ %d",
			g.RecordSize, DMAAlign, DMAMaxTransfer)
	case g.PassRecords <= 0 || g.PassRecords%64 != 0 || g.RecordsPerDPU%64 != 0 || g.PassRecords > g.RecordsPerDPU:
		return nil, fmt.Errorf("pim: %d records per pass of %d per DPU must be positive multiples of 64",
			g.PassRecords, g.RecordsPerDPU)
	case g.DPUs < 1 || g.FirstDPU < 0 || g.FirstDPU+g.DPUs > cfg.NumDPUs():
		return nil, fmt.Errorf("pim: DPUs [%d,%d) outside the %d-DPU system", g.FirstDPU, g.FirstDPU+g.DPUs, cfg.NumDPUs())
	}
	// Every DPU moves the same volume, so the busiest rank is the one
	// holding the most of the cluster's DPUs.
	var worstRank int64
	for r := g.FirstDPU / cfg.DPUsPerRank; r*cfg.DPUsPerRank < g.FirstDPU+g.DPUs; r++ {
		lo := max(r*cfg.DPUsPerRank, g.FirstDPU)
		hi := min((r+1)*cfg.DPUsPerRank, g.FirstDPU+g.DPUs)
		worstRank = max(worstRank, int64(hi-lo))
	}
	toPIM := func(perDPU int) Cost {
		return Cost{Modeled: cfg.HostToDPUDuration(worstRank*int64(perDPU), 1), Bytes: int64(g.DPUs * perDPU)}
	}

	b := int64(len(sels))
	words := int64(g.RecordSize / 8)
	recsPerDMA := recordsPerDMA(g.RecordSize)
	subMask := ^uint64(0) >> (64 - recsPerDMA)
	out := make([]PassCost, 0, g.Passes())
	for base := 0; base < g.RecordsPerDPU; base += g.PassRecords {
		n := min(g.PassRecords, g.RecordsPerDPU-base)
		var worst time.Duration
		var dmaTotal int64
		for d := range g.DPUs {
			first := (d*g.RecordsPerDPU + base) / 64
			var selected, fetches int64
			for w := first; w < first+n/64; w++ {
				var union uint64
				for _, sel := range sels {
					if w < len(sel) {
						union |= sel[w]
						selected += int64(bits.OnesCount64(sel[w]))
					}
				}
				for sub := 0; sub < 64 && union != 0; sub += recsPerDMA {
					if union>>sub&subMask != 0 {
						fetches++
					}
				}
			}
			instr := b*int64(n)*cyclesRecordCheck + selected*words*cyclesPerWordXOR +
				b*int64(cfg.TaskletsPerDPU)*words*cyclesPerWordXOR
			dma := b*int64(n/8) + fetches*int64(recsPerDMA*g.RecordSize) + b*int64(g.RecordSize)
			worst = max(worst, cfg.KernelDuration(instr, dma))
			dmaTotal += dma
		}
		pc := PassCost{
			Scatter: toPIM(len(sels) * n / 8),
			Launch:  Cost{Modeled: worst, Bytes: dmaTotal},
			Gather: Cost{
				Modeled: cfg.DPUToHostDuration(worstRank*b*int64(g.RecordSize), 1),
				Bytes:   int64(g.DPUs) * b * int64(g.RecordSize),
			},
			Folds: len(sels) * g.DPUs,
		}
		if !g.Resident() {
			pc.Stage = toPIM(n * g.RecordSize)
		}
		out = append(out, pc)
	}
	return out, nil
}
