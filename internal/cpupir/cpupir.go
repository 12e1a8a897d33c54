// Package cpupir implements the paper's baseline: a processor-centric
// multi-server PIR server in the style of Google's DPF implementation
// (§5.1). Every query runs as one pass: expand (DPF full-domain
// evaluation with batched AES-NI, through dpf's shared front end), then
// scan (xorop's dpXOR over the whole database). A lone query runs
// end-to-end on a single CPU thread, as the baseline does; a pass of
// B > 1 queries expands one key per thread and streams the database once
// for all B selectors, on at most GOMAXPROCS scan workers.
//
// This engine is what Figures 9, 10(b), 12 and Table 1 compare IM-PIR
// against. It is a real implementation (results are bit-exact and
// cross-checked against the PIM engine), with modeled durations layered
// on top via hostmodel so the reported numbers reflect the paper's
// 32-thread dual-Xeon baseline server rather than the local machine.
// The two columns stay separate: the measured fused scan XORs each
// selected record once per 8 selectors (xorop's subset table), less XOR
// work than the modeled baseline, which charges B × dbBytes/2 of XOR per
// pass (hostmodel.FusedScanDuration).
package cpupir

import (
	"errors"
	"fmt"
	"time"

	"github.com/impir/impir/internal/database"
	"github.com/impir/impir/internal/dpf"
	"github.com/impir/impir/internal/hostmodel"
	"github.com/impir/impir/internal/metrics"
	"github.com/impir/impir/internal/xorop"
)

// Config configures the CPU baseline engine.
type Config struct {
	// Threads is the number of concurrent query workers (the paper uses
	// 32, the baseline server's hardware thread count). 0 means 32.
	Threads int
	// Host models the baseline machine. Zero value means
	// hostmodel.CPUPIRBaseline.
	Host hostmodel.Model
}

// DefaultConfig returns the paper's baseline configuration.
func DefaultConfig() Config {
	return Config{
		Threads: 32,
		Host:    hostmodel.CPUPIRBaseline(),
	}
}

func (c Config) withDefaults() Config {
	if c.Threads == 0 {
		c.Threads = 32
	}
	if c.Host.Threads == 0 {
		c.Host = hostmodel.CPUPIRBaseline()
	}
	return c
}

// evalStrategy is the DPF traversal every key runs on its one thread,
// matching Google's chunked evaluator.
const evalStrategy = dpf.StrategyMemoryBounded

// Engine is the CPU-PIR baseline server engine.
type Engine struct {
	cfg    Config
	db     *database.DB
	domain int
}

// New builds a CPU baseline engine.
func New(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if cfg.Threads < 1 {
		return nil, fmt.Errorf("cpupir: Threads %d must be ≥ 1", cfg.Threads)
	}
	if err := cfg.Host.Validate(); err != nil {
		return nil, err
	}
	return &Engine{cfg: cfg}, nil
}

// Name identifies the engine in benchmark reports.
func (e *Engine) Name() string { return "CPU-PIR" }

// Config returns the engine's effective configuration.
func (e *Engine) Config() Config { return e.cfg }

// Database returns the loaded (padded) database, or nil.
func (e *Engine) Database() *database.DB { return e.db }

// LoadDatabase registers the database. The CPU baseline scans main
// memory directly, so "loading" is only padding and validation.
func (e *Engine) LoadDatabase(db *database.DB) error {
	if db == nil {
		return errors.New("cpupir: nil database")
	}
	if db.RecordSize()%8 != 0 {
		return fmt.Errorf("cpupir: record size %d must be a multiple of 8", db.RecordSize())
	}
	e.db = db.Replica()
	e.domain = e.db.Domain()
	return nil
}

// Pass answers B queries in one pass: expand every key, then one
// streaming dpXOR over the database accumulates all B subresults. The
// pass pays a single scan's memory traffic, and xorop's subset table
// XORs each selected record ⌈B/8⌉ times; the modeled baseline charges
// B× the XOR work. A lone query keeps the baseline's one thread for both
// stages (§5.1: "a single CPU thread for each query").
func (e *Engine) Pass(in dpf.Batch) ([][]byte, metrics.BatchStats, error) {
	if e.db == nil {
		return nil, metrics.BatchStats{}, errors.New("cpupir: no database loaded")
	}
	b := in.Len()
	threads := e.cfg.Threads
	if b == 1 {
		threads = 1
	}

	start := time.Now()
	sels, err := in.Expand(e.domain, threads, evalStrategy)
	if err != nil {
		return nil, metrics.BatchStats{}, fmt.Errorf("cpupir: %w", err)
	}
	evalWall := time.Since(start)
	var total metrics.Breakdown
	var evalModeled time.Duration
	if in.Keys != nil {
		// Keys expand min(B, threads) at a time, one thread each; eval has
		// no memory contention, so the rounds stack directly.
		rounds := (b + threads - 1) / threads
		evalModeled = time.Duration(rounds) * e.cfg.Host.EvalDuration(uint64(e.db.NumRecords()), 1)
		total.AddPhase(metrics.PhaseEval, evalWall, evalModeled)
	}

	start = time.Now()
	results, err := xorop.Scan(e.db.Data(), e.db.RecordSize(), sels, threads)
	if err != nil {
		return nil, metrics.BatchStats{}, fmt.Errorf("cpupir: dpXOR: %w", err)
	}
	scanWall := time.Since(start)
	scanModeled := e.cfg.Host.FusedScanDuration(e.db.SizeBytes(), b, threads)
	total.AddPhase(metrics.PhaseDpXOR, scanWall, scanModeled)
	return results, metrics.BatchStats{
		Queries:        b,
		PerQuery:       total.Scale(b),
		WallLatency:    evalWall + scanWall,
		ModeledLatency: evalModeled + scanModeled,
		Fused:          b > 1,
	}, nil
}

// ApplyUpdates applies a §3.3 bulk update between passes: the database
// lives in host DRAM, so the update is an in-place rewrite. Must not run
// concurrently with passes.
func (e *Engine) ApplyUpdates(updates map[uint64][]byte) error {
	if e.db == nil {
		return errors.New("cpupir: no database loaded")
	}
	return e.db.ApplyUpdates(updates)
}

// Close releases the engine (no external resources; API symmetry).
func (e *Engine) Close() error { return nil }
