// Package gpupir implements the GPU-accelerated multi-server PIR baseline
// of Lam et al. (ASPLOS'24), the comparison system of §5.5 / Figure 12.
//
// The engine executes the same DPF-PIR algorithm as the other engines —
// full-domain evaluation followed by the dpXOR scan — organised the way a
// CUDA implementation would be: a grid of thread blocks each reducing a
// contiguous slice of the database, followed by a device-wide reduction.
// Execution is functional (bit-exact, cross-checked against the CPU and
// PIM engines); durations are modeled on the paper's GPU platform, an
// NVIDIA GeForce RTX 4090 (§5.2: 24 GB VRAM, 1.01 TB/s memory bandwidth),
// since no GPU is available to this reproduction.
package gpupir

import (
	"errors"
	"fmt"
	"time"

	"github.com/impir/impir/internal/bitvec"
	"github.com/impir/impir/internal/database"
	"github.com/impir/impir/internal/dpf"
	"github.com/impir/impir/internal/metrics"
	"github.com/impir/impir/internal/xorop"
)

// Config describes the modeled GPU and the execution grid.
type Config struct {
	// ThreadBlocks is the number of CUDA-style blocks the dpXOR grid
	// uses; the functional executor partitions the DB accordingly.
	// 0 means 128 (one per SM on the RTX 4090).
	ThreadBlocks int
	// VRAMBytes is device memory; databases beyond it stream over PCIe.
	// 0 means 24 GB.
	VRAMBytes int64
	// VRAMBandwidth is device memory bandwidth in bytes/s. 0 = 1.01 TB/s.
	VRAMBandwidth float64
	// VRAMEfficiency derates peak bandwidth to achievable scan rate.
	// 0 means 0.70.
	VRAMEfficiency float64
	// PCIeBandwidth is the host↔device link in bytes/s. 0 means 25 GB/s
	// (PCIe 4.0 x16 effective).
	PCIeBandwidth float64
	// AESBlocksPerSec is the device-wide AES-128 throughput for DPF tree
	// expansion (GPUs lack AES-NI; this is a table/bitsliced kernel).
	// 0 means 6.4e9.
	AESBlocksPerSec float64
	// KernelOverhead is the fixed per-kernel-launch cost. 0 means 80 µs
	// (two launches per query: eval grid + reduction grid).
	KernelOverhead time.Duration
	// DisableBatchFusion reverts QueryBatch to one grid scan per query
	// (stream-overlapped). It is the reference the fused ≡ unfused tests
	// compare against; production leaves it off.
	DisableBatchFusion bool
}

// DefaultConfig returns the §5.2 GPU platform model.
func DefaultConfig() Config {
	return Config{
		ThreadBlocks:    128,
		VRAMBytes:       24 << 30,
		VRAMBandwidth:   1.01e12,
		VRAMEfficiency:  0.70,
		PCIeBandwidth:   25e9,
		AESBlocksPerSec: 6.4e9,
		KernelOverhead:  80 * time.Microsecond,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.ThreadBlocks == 0 {
		c.ThreadBlocks = d.ThreadBlocks
	}
	if c.VRAMBytes == 0 {
		c.VRAMBytes = d.VRAMBytes
	}
	if c.VRAMBandwidth == 0 {
		c.VRAMBandwidth = d.VRAMBandwidth
	}
	if c.VRAMEfficiency == 0 {
		c.VRAMEfficiency = d.VRAMEfficiency
	}
	if c.PCIeBandwidth == 0 {
		c.PCIeBandwidth = d.PCIeBandwidth
	}
	if c.AESBlocksPerSec == 0 {
		c.AESBlocksPerSec = d.AESBlocksPerSec
	}
	if c.KernelOverhead == 0 {
		c.KernelOverhead = d.KernelOverhead
	}
	return c
}

func (c Config) validate() error {
	if c.ThreadBlocks < 1 {
		return fmt.Errorf("gpupir: ThreadBlocks %d must be ≥ 1", c.ThreadBlocks)
	}
	if c.VRAMBytes < 1 || c.VRAMBandwidth <= 0 || c.PCIeBandwidth <= 0 || c.AESBlocksPerSec <= 0 {
		return errors.New("gpupir: hardware constants must be positive")
	}
	if c.VRAMEfficiency <= 0 || c.VRAMEfficiency > 1 {
		return fmt.Errorf("gpupir: VRAMEfficiency %v outside (0,1]", c.VRAMEfficiency)
	}
	return nil
}

// UploadDuration models pushing one query key over PCIe plus half the
// per-query launch overhead.
func (c Config) UploadDuration(keyBytes int) time.Duration {
	return time.Duration(float64(keyBytes)/c.PCIeBandwidth*float64(time.Second)) + c.KernelOverhead/2
}

// EvalDuration models the on-device DPF full-domain expansion: ≈ 2 AES
// blocks per internal node, N internal nodes.
func (c Config) EvalDuration(leaves uint64) time.Duration {
	return time.Duration(2 * float64(leaves) / c.AESBlocksPerSec * float64(time.Second))
}

// ScanDuration models the grid dpXOR over dbBytes: derated VRAM bandwidth
// when resident, PCIe streaming otherwise, plus one kernel launch.
func (c Config) ScanDuration(dbBytes int64) time.Duration {
	var sec float64
	if dbBytes <= c.VRAMBytes {
		sec = float64(dbBytes) / (c.VRAMBandwidth * c.VRAMEfficiency)
	} else {
		sec = float64(dbBytes) / c.PCIeBandwidth
	}
	return time.Duration(sec*float64(time.Second)) + c.KernelOverhead
}

// ScanBatchDuration models a FUSED grid dpXOR: one streaming pass over
// dbBytes accumulating `batch` results per thread block. Memory traffic
// is a single stream (the bound at small B); the XOR ALU work scales
// with the batch and runs at full (underated) VRAM bandwidth out of
// registers/shared memory, taking over as the bound once B is large.
func (c Config) ScanBatchDuration(dbBytes int64, batch int) time.Duration {
	if batch < 1 {
		batch = 1
	}
	var memSec float64
	if dbBytes <= c.VRAMBytes {
		memSec = float64(dbBytes) / (c.VRAMBandwidth * c.VRAMEfficiency)
	} else {
		memSec = float64(dbBytes) / c.PCIeBandwidth
	}
	// Each selector share sets ~half the bits → batch × dbBytes/2 XORed,
	// out of on-chip storage at peak bandwidth.
	xorSec := float64(batch) * float64(dbBytes) / 2 / c.VRAMBandwidth
	sec := memSec
	if xorSec > sec {
		sec = xorSec
	}
	return time.Duration(sec*float64(time.Second)) + c.KernelOverhead
}

// DownloadDuration models pulling the subresult back plus half the
// per-query launch overhead.
func (c Config) DownloadDuration(recordSize int) time.Duration {
	return time.Duration(float64(recordSize)/c.PCIeBandwidth*float64(time.Second)) + c.KernelOverhead/2
}

// Engine is the GPU-PIR baseline server engine.
type Engine struct {
	cfg    Config
	db     *database.DB
	domain int
}

// New builds a GPU baseline engine.
func New(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Engine{cfg: cfg}, nil
}

// Name identifies the engine in benchmark reports.
func (e *Engine) Name() string { return "GPU-PIR" }

// Config returns the effective configuration.
func (e *Engine) Config() Config { return e.cfg }

// Database returns the loaded (padded) database, or nil.
func (e *Engine) Database() *database.DB { return e.db }

// LoadDatabase stages the database in (modeled) VRAM. Loading is a
// one-time cost excluded from query latency, like the paper's setups.
func (e *Engine) LoadDatabase(db *database.DB) error {
	if db == nil {
		return errors.New("gpupir: nil database")
	}
	if db.RecordSize()%8 != 0 {
		return fmt.Errorf("gpupir: record size %d must be a multiple of 8", db.RecordSize())
	}
	padded := db.PadToPowerOfTwo()
	if padded == db {
		// PadToPowerOfTwo returned the caller's storage; clone so this
		// replica is independent of the caller's and of other engines
		// loaded from the same DB (true replica semantics for §3.3
		// updates).
		padded = db.Clone()
	}
	e.db = padded
	e.domain = padded.Domain()
	return nil
}

func (e *Engine) validateKey(key *dpf.Key) error {
	if e.db == nil {
		return errors.New("gpupir: no database loaded")
	}
	if key == nil {
		return errors.New("gpupir: nil key")
	}
	if int(key.Domain) != e.domain {
		return fmt.Errorf("gpupir: key domain %d does not match database domain %d", key.Domain, e.domain)
	}
	return nil
}

// Query processes one query: upload key (PCIe), evaluate the DPF tree on
// device, grid-scan the database, reduce, download the subresult.
func (e *Engine) Query(key *dpf.Key) ([]byte, metrics.Breakdown, error) {
	if err := e.validateKey(key); err != nil {
		return nil, metrics.Breakdown{}, err
	}
	var bd metrics.Breakdown
	n := uint64(e.db.NumRecords())
	recordSize := e.db.RecordSize()

	// Key upload: O(λ log N) bytes over PCIe — microseconds.
	start := time.Now()
	bd.AddPhase(metrics.PhaseCopyToPIM, time.Since(start), e.cfg.UploadDuration(key.WireSize()))

	// On-device DPF full-domain evaluation (memory-bounded traversal,
	// the strategy Lam et al. adopt — §3.2).
	start = time.Now()
	vec, err := key.EvalFull(dpf.FullEvalOptions{Strategy: dpf.StrategyMemoryBounded})
	if err != nil {
		return nil, bd, fmt.Errorf("gpupir: DPF evaluation: %w", err)
	}
	bd.AddPhase(metrics.PhaseEval, time.Since(start), e.cfg.EvalDuration(n))

	// Grid dpXOR: each thread block reduces a contiguous DB slice, then
	// a second kernel folds the per-block partials.
	start = time.Now()
	result, err := e.gridScan(vec)
	if err != nil {
		return nil, bd, err
	}
	bd.AddPhase(metrics.PhaseDpXOR, time.Since(start), e.cfg.ScanDuration(e.db.SizeBytes()))

	// Subresult download.
	start = time.Now()
	bd.AddPhase(metrics.PhaseCopyToHost, time.Since(start), e.cfg.DownloadDuration(recordSize))

	return result, bd, nil
}

// gridScan runs the CUDA-style block-partitioned selective XOR over the
// database with the given selector vector.
func (e *Engine) gridScan(vec *bitvec.Vector) ([]byte, error) {
	recordSize := e.db.RecordSize()
	result := make([]byte, recordSize)
	blocks := e.cfg.ThreadBlocks
	numRecords := e.db.NumRecords()
	groups := numRecords / 64 // 64-record selector words
	if groups == 0 {
		groups = 1
	}
	if blocks > groups {
		blocks = groups
	}
	groupsPerBlock := (groups + blocks - 1) / blocks
	words := vec.Words()
	data := e.db.Data()
	partial := make([]byte, recordSize)
	for b := 0; b < blocks; b++ {
		loGroup := b * groupsPerBlock
		hiGroup := loGroup + groupsPerBlock
		if hiGroup > groups {
			hiGroup = groups
		}
		if loGroup >= hiGroup {
			break
		}
		loRec := loGroup * 64
		hiRec := hiGroup * 64
		if hiRec > numRecords {
			hiRec = numRecords
		}
		for i := range partial {
			partial[i] = 0
		}
		if err := xorop.Accumulate(partial, data[loRec*recordSize:hiRec*recordSize],
			recordSize, words[loGroup:hiGroup]); err != nil {
			return nil, fmt.Errorf("gpupir: block %d: %w", b, err)
		}
		if err := xorop.XORBytes(result, partial); err != nil {
			return nil, err
		}
	}
	return result, nil
}

// gridScanBatch runs the FUSED block-partitioned selective XOR: each
// thread block streams its contiguous DB slice once and accumulates all
// B selector results from it, so the batch pays one pass of memory
// traffic. Results are bit-identical to per-query gridScan calls.
func (e *Engine) gridScanBatch(vecs []*bitvec.Vector) ([][]byte, error) {
	recordSize := e.db.RecordSize()
	nq := len(vecs)
	results := make([][]byte, nq)
	for q := range results {
		results[q] = make([]byte, recordSize)
	}
	blocks := e.cfg.ThreadBlocks
	numRecords := e.db.NumRecords()
	groups := numRecords / 64
	if groups == 0 {
		groups = 1
	}
	if blocks > groups {
		blocks = groups
	}
	groupsPerBlock := (groups + blocks - 1) / blocks
	words := make([][]uint64, nq)
	for q, v := range vecs {
		words[q] = v.Words()
	}
	data := e.db.Data()
	partials := make([][]byte, nq)
	buf := make([]byte, nq*recordSize)
	for q := range partials {
		partials[q] = buf[q*recordSize : (q+1)*recordSize]
	}
	blockSels := make([][]uint64, nq)
	for b := 0; b < blocks; b++ {
		loGroup := b * groupsPerBlock
		hiGroup := loGroup + groupsPerBlock
		if hiGroup > groups {
			hiGroup = groups
		}
		if loGroup >= hiGroup {
			break
		}
		loRec := loGroup * 64
		hiRec := hiGroup * 64
		if hiRec > numRecords {
			hiRec = numRecords
		}
		for i := range buf {
			buf[i] = 0
		}
		for q := range words {
			blockSels[q] = words[q][loGroup:hiGroup]
		}
		// One fused serial pass per block — the block IS the parallel
		// grain, so the kernel below runs with a single worker.
		if err := xorop.AccumulateBatchWorkers(partials, data[loRec*recordSize:hiRec*recordSize],
			recordSize, blockSels, 1); err != nil {
			return nil, fmt.Errorf("gpupir: fused block %d: %w", b, err)
		}
		for q := range results {
			if err := xorop.XORBytes(results[q], partials[q]); err != nil {
				return nil, err
			}
		}
	}
	return results, nil
}

// QueryShare processes a raw selector-share query (the n-server
// generalisation of §2.3): the grid scan driven directly by an explicit
// N-bit share, with no on-device DPF expansion.
func (e *Engine) QueryShare(share *bitvec.Vector) ([]byte, metrics.Breakdown, error) {
	var bd metrics.Breakdown
	if e.db == nil {
		return nil, bd, errors.New("gpupir: no database loaded")
	}
	if share == nil {
		return nil, bd, errors.New("gpupir: nil share")
	}
	if share.Len() != e.db.NumRecords() {
		return nil, bd, fmt.Errorf("gpupir: share covers %d records, database has %d",
			share.Len(), e.db.NumRecords())
	}
	// The share itself must cross PCIe (N/8 bytes — the §2.3 scheme's
	// communication cost becomes a transfer cost here).
	start := time.Now()
	bd.AddPhase(metrics.PhaseCopyToPIM, time.Since(start),
		e.cfg.UploadDuration(share.Len()/8))
	start = time.Now()
	result, err := e.gridScan(share)
	if err != nil {
		return nil, bd, err
	}
	bd.AddPhase(metrics.PhaseDpXOR, time.Since(start), e.cfg.ScanDuration(e.db.SizeBytes()))
	start = time.Now()
	bd.AddPhase(metrics.PhaseCopyToHost, time.Since(start), e.cfg.DownloadDuration(e.db.RecordSize()))
	return result, bd, nil
}

// QueryBatch processes a batch of coalesced queries. The default path
// fuses the scans: all B keys upload and expand first (stream-
// overlapped), then ONE fused grid pass streams the database once and
// accumulates all B results (gridScanBatch / ScanBatchDuration). With
// DisableBatchFusion the engine reverts to one scan per query with
// CUDA-stream-style eval/scan overlap.
func (e *Engine) QueryBatch(keys []*dpf.Key) ([][]byte, metrics.BatchStats, error) {
	if len(keys) == 0 {
		return nil, metrics.BatchStats{}, errors.New("gpupir: empty batch")
	}
	if !e.cfg.DisableBatchFusion && len(keys) > 1 {
		return e.queryBatchFused(keys)
	}
	results := make([][]byte, len(keys))
	var total metrics.Breakdown
	var evalStage, scanStage time.Duration

	start := time.Now()
	for i, key := range keys {
		r, bd, err := e.Query(key)
		if err != nil {
			return nil, metrics.BatchStats{}, fmt.Errorf("gpupir: query %d: %w", i, err)
		}
		results[i] = r
		total.Add(bd)
		evalStage += bd.Modeled[metrics.PhaseEval] + bd.Modeled[metrics.PhaseCopyToPIM]
		scanStage += bd.Modeled[metrics.PhaseDpXOR] + bd.Modeled[metrics.PhaseCopyToHost]
	}
	wall := time.Since(start)

	modeled := evalStage
	if scanStage > modeled {
		modeled = scanStage
	}
	stats := metrics.BatchStats{
		Queries:        len(keys),
		PerQuery:       total.Scale(len(keys)),
		WallLatency:    wall,
		ModeledLatency: modeled,
	}
	return results, stats, nil
}

// queryBatchFused is the fused hot path: upload + expand every key
// (uploads and evals overlap scan-free), then one fused grid scan and B
// downloads. The fused scan needs ALL selectors resident before it
// launches, so eval no longer overlaps scanning — the single pass is
// cheap enough that the trade wins for every B > 1.
func (e *Engine) queryBatchFused(keys []*dpf.Key) ([][]byte, metrics.BatchStats, error) {
	b := len(keys)
	for i, k := range keys {
		if err := e.validateKey(k); err != nil {
			return nil, metrics.BatchStats{}, fmt.Errorf("gpupir: batch key %d: %w", i, err)
		}
	}
	n := uint64(e.db.NumRecords())
	recordSize := e.db.RecordSize()
	var total metrics.Breakdown

	start := time.Now()
	var uploadModeled, evalModeled time.Duration
	vecs := make([]*bitvec.Vector, b)
	for i, key := range keys {
		uploadModeled += e.cfg.UploadDuration(key.WireSize())
		vec, err := key.EvalFull(dpf.FullEvalOptions{Strategy: dpf.StrategyMemoryBounded})
		if err != nil {
			return nil, metrics.BatchStats{}, fmt.Errorf("gpupir: DPF evaluation %d: %w", i, err)
		}
		vecs[i] = vec
		evalModeled += e.cfg.EvalDuration(n)
	}
	evalWall := time.Since(start)
	total.AddPhase(metrics.PhaseCopyToPIM, 0, uploadModeled)
	total.AddPhase(metrics.PhaseEval, evalWall, evalModeled)

	start = time.Now()
	results, err := e.gridScanBatch(vecs)
	if err != nil {
		return nil, metrics.BatchStats{}, err
	}
	scanWall := time.Since(start)
	scanModeled := e.cfg.ScanBatchDuration(e.db.SizeBytes(), b)
	total.AddPhase(metrics.PhaseDpXOR, scanWall, scanModeled)

	downloadModeled := time.Duration(b) * e.cfg.DownloadDuration(recordSize)
	total.AddPhase(metrics.PhaseCopyToHost, 0, downloadModeled)

	// Key uploads overlap on-device eval (CUDA streams), so the makespan
	// pays the slower of the two, then the single fused scan, then the
	// result downloads.
	frontEnd := evalModeled
	if uploadModeled > frontEnd {
		frontEnd = uploadModeled
	}
	stats := metrics.BatchStats{
		Queries:        b,
		PerQuery:       total.Scale(b),
		WallLatency:    evalWall + scanWall,
		ModeledLatency: frontEnd + scanModeled + downloadModeled,
		Fused:          true,
	}
	return results, stats, nil
}

// QueryShareBatch processes B raw selector-share queries with ONE fused
// grid pass over the database — the n-server analogue of the fused
// QueryBatch. The shares themselves cross PCIe (B × N/8 bytes).
func (e *Engine) QueryShareBatch(shares []*bitvec.Vector) ([][]byte, metrics.BatchStats, error) {
	if e.db == nil {
		return nil, metrics.BatchStats{}, errors.New("gpupir: no database loaded")
	}
	if len(shares) == 0 {
		return nil, metrics.BatchStats{}, errors.New("gpupir: empty share batch")
	}
	for i, sh := range shares {
		if sh == nil {
			return nil, metrics.BatchStats{}, fmt.Errorf("gpupir: share %d is nil", i)
		}
		if sh.Len() != e.db.NumRecords() {
			return nil, metrics.BatchStats{}, fmt.Errorf("gpupir: share %d covers %d records, database has %d",
				i, sh.Len(), e.db.NumRecords())
		}
	}
	b := len(shares)
	recordSize := e.db.RecordSize()
	var total metrics.Breakdown

	uploadModeled := time.Duration(b) * e.cfg.UploadDuration(shares[0].Len()/8)
	total.AddPhase(metrics.PhaseCopyToPIM, 0, uploadModeled)

	start := time.Now()
	var results [][]byte
	var err error
	var scanModeled time.Duration
	if e.cfg.DisableBatchFusion {
		results = make([][]byte, b)
		for i, sh := range shares {
			if results[i], err = e.gridScan(sh); err != nil {
				return nil, metrics.BatchStats{}, err
			}
		}
		scanModeled = time.Duration(b) * e.cfg.ScanDuration(e.db.SizeBytes())
	} else {
		if results, err = e.gridScanBatch(shares); err != nil {
			return nil, metrics.BatchStats{}, err
		}
		scanModeled = e.cfg.ScanBatchDuration(e.db.SizeBytes(), b)
	}
	scanWall := time.Since(start)
	total.AddPhase(metrics.PhaseDpXOR, scanWall, scanModeled)

	downloadModeled := time.Duration(b) * e.cfg.DownloadDuration(recordSize)
	total.AddPhase(metrics.PhaseCopyToHost, 0, downloadModeled)

	stats := metrics.BatchStats{
		Queries:        b,
		PerQuery:       total.Scale(b),
		WallLatency:    scanWall,
		ModeledLatency: uploadModeled + scanModeled + downloadModeled,
		Fused:          !e.cfg.DisableBatchFusion,
	}
	return results, stats, nil
}

// ApplyUpdates is the uniform update entry point shared by every engine.
func (e *Engine) ApplyUpdates(updates map[uint64][]byte) error {
	return e.UpdateRecords(updates)
}

// UpdateRecords applies a bulk database update between query batches: the
// host rewrites its copy and (in a real deployment) re-uploads the dirty
// records over PCIe. Must not run concurrently with queries.
func (e *Engine) UpdateRecords(updates map[uint64][]byte) error {
	if e.db == nil {
		return errors.New("gpupir: no database loaded")
	}
	if len(updates) == 0 {
		return errors.New("gpupir: empty update set")
	}
	for idx, rec := range updates {
		if idx >= uint64(e.db.NumRecords()) {
			return fmt.Errorf("gpupir: update index %d outside [0,%d)", idx, e.db.NumRecords())
		}
		if len(rec) != e.db.RecordSize() {
			return fmt.Errorf("gpupir: update for record %d has %d bytes, want %d",
				idx, len(rec), e.db.RecordSize())
		}
	}
	for idx, rec := range updates {
		if err := e.db.SetRecord(int(idx), rec); err != nil {
			return err
		}
	}
	return nil
}

// Close releases the engine (no external resources; API symmetry).
func (e *Engine) Close() error { return nil }
