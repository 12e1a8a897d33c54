package pim

// Per-record instruction estimates for the DPU timing model, in DPU
// instructions (≈ cycles at saturated pipeline occupancy). The DPU is a
// 32-bit in-order core, so one 64-bit load+XOR+store round trip costs
// several instructions; these constants are calibrated so the modeled
// dpXOR share of query time matches Table 1 of the paper (≈ 16% for
// IM-PIR) and are consistent with per-DPU effective throughputs measured
// on real UPMEM hardware (tens of MB/s for compute+copy kernels).
const (
	// cyclesRecordCheck covers selector-bit extraction, the branch and
	// loop bookkeeping charged for every record, selected or not.
	cyclesRecordCheck = 12
	// cyclesPerWordXOR covers XOR-accumulating one 8-byte word of a
	// selected record from WRAM into the accumulator (two 32-bit loads,
	// two XORs, two stores plus addressing on the 32-bit core).
	cyclesPerWordXOR = 24
)

// MaxSelectorsPerLaunch bounds the fused batch width one DPXOR launch
// accepts; real WRAM capacity binds far earlier for most record sizes
// (see MaxFusedSelectors).
const MaxSelectorsPerLaunch = 64

// ModelCost estimates the per-DPU instruction and DMA-byte counts of a
// DPXOR execution over a chunk of numRecords records, assuming the
// expected DPF-share selectivity of 1/2. These are the quantities the
// tasklet kernel of this package's tests charges; the benchmark harness
// combines them with Config.KernelDuration to evaluate paper-scale
// configurations without materialising the database.
func ModelCost(numRecords, recordSize, tasklets int) (instrCycles, dmaBytes int64) {
	return ModelCostBatch(numRecords, recordSize, tasklets, 1)
}

// ModelCostBatch is ModelCost for a FUSED launch carrying `batch`
// selector streams: the database chunk is DMA'd from MRAM once per pass
// (the term fusion amortises), while selector checks, XOR accumulation,
// the stage-2 folds, selector-stream DMA and subresult DMA all scale
// with the batch.
func ModelCostBatch(numRecords, recordSize, tasklets, batch int) (instrCycles, dmaBytes int64) {
	if batch < 1 {
		batch = 1
	}
	words := int64(recordSize / 8)
	n := int64(numRecords)
	b := int64(batch)
	instrCycles = b*n*cyclesRecordCheck + b*(n/2)*words*cyclesPerWordXOR
	// Stage 2: master tasklet folds one partial per tasklet per stream.
	instrCycles += b * int64(tasklets) * words * cyclesPerWordXOR
	// DMA: the database chunk ONCE, B selector streams, B subresults.
	dmaBytes = n*int64(recordSize) + b*(n/8) + b*int64(recordSize)
	return instrCycles, dmaBytes
}

// selBlockGroupsFor returns how many 64-record groups of selector words
// one WRAM selector-buffer transfer covers per stream: 64 groups (512
// bytes/stream) when the batch is narrow, halved until the combined
// B-stream buffer fits the historical 512-byte footprint (floor 1).
func selBlockGroupsFor(batch int) int {
	sbg := 64
	for sbg > 1 && batch*sbg*8 > 512 {
		sbg /= 2
	}
	return sbg
}

// MaxFusedSelectors returns the widest batch B one DPXOR launch supports
// for the given record size under cfg's WRAM budget: shared per-tasklet
// partials (T×B×recordSize), each tasklet's record and selector buffers,
// and the master tasklet's fold buffer must all fit WRAMPerDPU. Returns
// at least 1 (a solo launch must always work) and at most
// MaxSelectorsPerLaunch.
func MaxFusedSelectors(cfg Config, recordSize int) int {
	recsPerDMA := recordsPerDMA(recordSize)
	t := cfg.TaskletsPerDPU
	for b := MaxSelectorsPerLaunch; b > 1; b-- {
		selBuf := b * selBlockGroupsFor(b) * 8
		wram := t*b*recordSize + t*(recsPerDMA*recordSize+selBuf) + recordSize
		if wram <= cfg.WRAMPerDPU {
			return b
		}
	}
	return 1
}

// recordsPerDMA is how many records one WRAM record fetch covers: as many
// as fit one DMA transfer, at most a 64-record selector word, rounded
// down to a power of two so sub-chunks keep selector bit offsets
// word-regular.
func recordsPerDMA(recordSize int) int {
	r := min(DMAMaxTransfer/recordSize, 64)
	for r&(r-1) != 0 {
		r &= r - 1
	}
	return r
}
