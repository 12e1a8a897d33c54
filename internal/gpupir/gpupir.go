// Package gpupir implements the GPU-accelerated multi-server PIR baseline
// of Lam et al. (ASPLOS'24), the comparison system of §5.5 / Figure 12.
//
// The engine answers every query through the same one pass as the other
// engines — expand (DPF full-domain evaluation, through dpf's shared
// front end), then scan (the dpXOR) — and the scan is the same one host
// scan too: xorop.Scan, on the host's cores. The modeled scan is a CUDA
// grid of thread blocks each streaming a contiguous slice of the
// database once for all B selectors of the pass, followed by a
// device-wide reduction; any such partition XORs to the same bytes, and
// the package tests keep a functional grid as the oracle that shows it.
// Durations are modeled on the paper's GPU platform, an NVIDIA GeForce
// RTX 4090 (§5.2: 24 GB VRAM, 1.01 TB/s memory bandwidth), since no GPU
// is available to this reproduction.
package gpupir

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"github.com/impir/impir/internal/database"
	"github.com/impir/impir/internal/dpf"
	"github.com/impir/impir/internal/metrics"
	"github.com/impir/impir/internal/xorop"
)

// Config describes the modeled GPU.
type Config struct {
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
}

// DefaultConfig returns the §5.2 GPU platform model.
func DefaultConfig() Config {
	return Config{
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
	e.db = db.Replica()
	e.domain = e.db.Domain()
	return nil
}

// Pass answers B queries in one pass: upload each key (or share) over
// PCIe, expand the keys (the memory-bounded traversal Lam et al. adopt,
// §3.2), run ONE grid dpXOR that streams the database once for all B
// selectors, and download the B subresults. A lone query pays upload and
// eval in series; once several are in flight, CUDA streams overlap the
// uploads with on-device eval, so the front end costs the slower of the
// two. Expansion and the scan run on the host's cores; their durations
// are modeled on the device.
func (e *Engine) Pass(in dpf.Batch) ([][]byte, metrics.BatchStats, error) {
	if e.db == nil {
		return nil, metrics.BatchStats{}, errors.New("gpupir: no database loaded")
	}
	b := in.Len()
	n := e.db.NumRecords()

	start := time.Now()
	sels, err := in.Expand(e.domain, 0, dpf.StrategyMemoryBounded)
	if err != nil {
		return nil, metrics.BatchStats{}, fmt.Errorf("gpupir: %w", err)
	}
	evalWall := time.Since(start)
	// A key is O(λ log N) bytes over PCIe; a share is N/8 — the §2.3
	// scheme's communication cost becomes a transfer cost here.
	upload := time.Duration(len(in.Shares)) * e.cfg.UploadDuration(n/8)
	for _, k := range in.Keys {
		upload += e.cfg.UploadDuration(k.WireSize())
	}
	evalModeled := time.Duration(len(in.Keys)) * e.cfg.EvalDuration(uint64(n))

	start = time.Now()
	results, err := xorop.Scan(e.db.Data(), e.db.RecordSize(), sels, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, metrics.BatchStats{}, fmt.Errorf("gpupir: dpXOR: %w", err)
	}
	scanWall := time.Since(start)
	scanModeled := e.cfg.ScanBatchDuration(e.db.SizeBytes(), b)
	download := time.Duration(b) * e.cfg.DownloadDuration(e.db.RecordSize())

	var total metrics.Breakdown
	total.AddPhase(metrics.PhaseCopyToPIM, 0, upload)
	if in.Keys != nil {
		total.AddPhase(metrics.PhaseEval, evalWall, evalModeled)
	}
	total.AddPhase(metrics.PhaseDpXOR, scanWall, scanModeled)
	total.AddPhase(metrics.PhaseCopyToHost, 0, download)
	frontEnd := upload + evalModeled
	if b > 1 {
		frontEnd = max(upload, evalModeled)
	}
	return results, metrics.BatchStats{
		Queries:        b,
		PerQuery:       total.Scale(b),
		WallLatency:    evalWall + scanWall,
		ModeledLatency: frontEnd + scanModeled + download,
		Fused:          b > 1,
	}, nil
}

// ApplyUpdates applies a §3.3 bulk update between passes: the host
// rewrites its copy and (in a real deployment) re-uploads the dirty
// records over PCIe. Must not run concurrently with passes.
func (e *Engine) ApplyUpdates(updates map[uint64][]byte) error {
	if e.db == nil {
		return errors.New("gpupir: no database loaded")
	}
	return e.db.ApplyUpdates(updates)
}

// Close releases the engine (no external resources; API symmetry).
func (e *Engine) Close() error { return nil }
