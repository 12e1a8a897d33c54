// Package gpupir prices the GPU-accelerated multi-server PIR baseline
// of Lam et al. (ASPLOS'24), the comparison system of §5.5 / Figure 12.
//
// The one server engine (internal/engine) answers every query; this
// package is its GPU Pricer. The modeled scan is a CUDA grid of thread
// blocks each streaming a contiguous slice of the database once for all
// B selectors of the pass, followed by a device-wide reduction; any
// such partition XORs to the same bytes as the engine's host scan, and
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
	"github.com/impir/impir/internal/engine"
	"github.com/impir/impir/internal/metrics"
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

// Pricer prices a pass on the modeled GPU.
type Pricer struct {
	cfg Config
}

// NewPricer builds a GPU pricer.
func NewPricer(cfg Config) (*Pricer, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Pricer{cfg: cfg}, nil
}

// Name implements engine.Pricer.
func (p *Pricer) Name() string { return "GPU-PIR" }

// Schedule expands with the memory-bounded traversal Lam et al. adopt
// (§3.2) and scans on every host core.
func (p *Pricer) Schedule(int) engine.Schedule {
	return engine.Schedule{Strategy: dpf.StrategyMemoryBounded, ScanThreads: runtime.GOMAXPROCS(0)}
}

// Layout stages the database in (modeled) VRAM; a database beyond it
// streams over PCIe, which ScanBatchDuration charges per pass.
func (p *Pricer) Layout(*database.DB) error { return nil }

// Price models the pass on the device: upload each key (or share) over
// PCIe, expand the keys, run ONE grid dpXOR that streams the database
// once for all B selectors, and download the B subresults. A lone query
// pays upload and eval in series; once several are in flight, CUDA
// streams overlap the uploads with on-device eval, so the front end
// costs the slower of the two.
func (p *Pricer) Price(pass engine.Pass) (metrics.Breakdown, time.Duration, error) {
	b, n := pass.In.Len(), pass.DB.NumRecords()
	// A key is O(λ log N) bytes over PCIe; a share is N/8 — the §2.3
	// scheme's communication cost becomes a transfer cost here.
	upload := time.Duration(len(pass.In.Shares)) * p.cfg.UploadDuration(n/8)
	for _, k := range pass.In.Keys {
		upload += p.cfg.UploadDuration(k.WireSize())
	}
	eval := time.Duration(len(pass.In.Keys)) * p.cfg.EvalDuration(uint64(n))
	scan := p.cfg.ScanBatchDuration(pass.DB.SizeBytes(), b)
	download := time.Duration(b) * p.cfg.DownloadDuration(pass.DB.RecordSize())

	var bd metrics.Breakdown
	bd.AddPhase(metrics.PhaseCopyToPIM, 0, upload)
	bd.AddPhase(metrics.PhaseEval, 0, eval)
	bd.AddPhase(metrics.PhaseDpXOR, 0, scan)
	bd.AddPhase(metrics.PhaseCopyToHost, 0, download)
	frontEnd := upload + eval
	if b > 1 {
		frontEnd = max(upload, eval)
	}
	return bd, frontEnd + scan + download, nil
}
