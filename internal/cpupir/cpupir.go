// Package cpupir implements the paper's baseline: a processor-centric
// multi-server PIR server in the style of Google's DPF implementation
// (§5.1). Each query is handled end-to-end by a single CPU thread — DPF
// full-domain evaluation with batched AES-NI followed by the dpXOR scan
// of the entire database with AVX-width (256-bit) XOR kernels. Batches
// run one thread per query, up to the configured thread count.
//
// This engine is what Figures 9, 10(b), 12 and Table 1 compare IM-PIR
// against. It is a real implementation (results are bit-exact and
// cross-checked against the PIM engine), with modeled durations layered
// on top via hostmodel so the reported numbers reflect the paper's
// 32-thread dual-Xeon baseline server rather than the local machine.
package cpupir

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/impir/impir/internal/bitvec"
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
	// DisableBatchFusion reverts QueryBatch to the historical
	// one-thread-per-query execution (B independent scans). It is the
	// reference the fused ≡ unfused tests compare against; production
	// leaves it off.
	DisableBatchFusion bool
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

// evalStrategy is the DPF traversal every query runs on its one thread,
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
		return errors.New("cpupir: no database loaded")
	}
	if key == nil {
		return errors.New("cpupir: nil key")
	}
	if int(key.Domain) != e.domain {
		return fmt.Errorf("cpupir: key domain %d does not match database domain %d", key.Domain, e.domain)
	}
	return nil
}

// queryOneThread processes one query on one worker thread, as the
// baseline does under batch load. `concurrent` is how many queries are in
// flight machine-wide, which determines the modeled memory contention.
func (e *Engine) queryOneThread(key *dpf.Key, concurrent int) ([]byte, metrics.Breakdown, error) {
	var bd metrics.Breakdown
	n := uint64(e.db.NumRecords())

	// DPF evaluation (single thread per query).
	start := time.Now()
	vec, err := key.EvalFull(dpf.FullEvalOptions{Strategy: evalStrategy, Workers: 1})
	if err != nil {
		return nil, bd, fmt.Errorf("cpupir: DPF evaluation: %w", err)
	}
	bd.AddPhase(metrics.PhaseEval, time.Since(start), e.cfg.Host.EvalDuration(n, 1))

	// dpXOR: selective XOR over the whole database (all-for-one).
	start = time.Now()
	result := make([]byte, e.db.RecordSize())
	if err := xorop.Accumulate(result, e.db.Data(), e.db.RecordSize(), vec.Words()); err != nil {
		return nil, bd, fmt.Errorf("cpupir: dpXOR: %w", err)
	}
	bd.AddPhase(metrics.PhaseDpXOR, time.Since(start),
		e.cfg.Host.ScanDuration(e.db.SizeBytes(), concurrent))

	return result, bd, nil
}

// Query processes a single PIR query (no batch contention).
func (e *Engine) Query(key *dpf.Key) ([]byte, metrics.Breakdown, error) {
	if err := e.validateKey(key); err != nil {
		return nil, metrics.Breakdown{}, err
	}
	return e.queryOneThread(key, 1)
}

// QueryBatch processes a batch of coalesced queries. The default path is
// the fused pipeline: every DPF key is expanded in parallel (one thread
// per key, up to Threads), then ONE streaming pass over the database
// accumulates all B results at once (xorop.AccumulateBatch). The scan is
// memory-bound, so the fused pass pays a single scan's memory traffic —
// B× XOR work — instead of B full scans.
//
// With DisableBatchFusion the engine reverts to §5.1's
// one-thread-per-query execution: B independent scans, W at a time.
func (e *Engine) QueryBatch(keys []*dpf.Key) ([][]byte, metrics.BatchStats, error) {
	if len(keys) == 0 {
		return nil, metrics.BatchStats{}, errors.New("cpupir: empty batch")
	}
	for i, k := range keys {
		if err := e.validateKey(k); err != nil {
			return nil, metrics.BatchStats{}, fmt.Errorf("cpupir: batch key %d: %w", i, err)
		}
	}
	if e.cfg.DisableBatchFusion || len(keys) == 1 {
		return e.queryBatchUnfused(keys)
	}
	return e.queryBatchFused(keys)
}

// queryBatchFused is the fused hot path: parallel EvalFull of all B
// keys, then one AccumulateBatch scan across all Threads.
func (e *Engine) queryBatchFused(keys []*dpf.Key) ([][]byte, metrics.BatchStats, error) {
	n := uint64(e.db.NumRecords())
	b := len(keys)
	workers := e.cfg.Threads
	if workers > b {
		workers = b
	}

	vecs := make([]*bitvec.Vector, b)
	errs := make([]error, b)
	keyCh := make(chan int, b)
	for i := range keys {
		keyCh <- i
	}
	close(keyCh)

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range keyCh {
				vecs[i], errs[i] = keys[i].EvalFull(dpf.FullEvalOptions{
					Strategy: evalStrategy, Workers: 1,
				})
			}
		}()
	}
	wg.Wait()
	evalWall := time.Since(start)
	for i := range errs {
		if errs[i] != nil {
			return nil, metrics.BatchStats{}, fmt.Errorf("cpupir: DPF evaluation %d: %w", i, errs[i])
		}
	}
	// Eval makespan: W keys expand concurrently, each on one thread; the
	// last round may be partially occupied but eval has no memory
	// contention, so rounds stack directly.
	evalRounds := (b + workers - 1) / workers
	evalModeled := time.Duration(evalRounds) * e.cfg.Host.EvalDuration(n, 1)

	sels := make([][]uint64, b)
	for i, v := range vecs {
		sels[i] = v.Words()
	}
	results := make([][]byte, b)
	for i := range results {
		results[i] = make([]byte, e.db.RecordSize())
	}
	start = time.Now()
	if err := xorop.AccumulateBatchWorkers(results, e.db.Data(), e.db.RecordSize(), sels, e.cfg.Threads); err != nil {
		return nil, metrics.BatchStats{}, fmt.Errorf("cpupir: fused dpXOR: %w", err)
	}
	scanWall := time.Since(start)
	scanModeled := e.cfg.Host.FusedScanDuration(e.db.SizeBytes(), b, e.cfg.Threads)

	var total metrics.Breakdown
	total.AddPhase(metrics.PhaseEval, evalWall, evalModeled)
	total.AddPhase(metrics.PhaseDpXOR, scanWall, scanModeled)
	stats := metrics.BatchStats{
		Queries:        b,
		PerQuery:       total.Scale(b),
		WallLatency:    evalWall + scanWall,
		ModeledLatency: evalModeled + scanModeled,
		Fused:          true,
	}
	return results, stats, nil
}

// queryBatchUnfused is the historical baseline: one worker thread per
// query, W concurrent scans (§5.1: "The CPU PIR baseline uses a single
// CPU thread for each query").
func (e *Engine) queryBatchUnfused(keys []*dpf.Key) ([][]byte, metrics.BatchStats, error) {
	workers := e.cfg.Threads
	if workers > len(keys) {
		workers = len(keys)
	}
	concurrent := workers // modeled contention level

	results := make([][]byte, len(keys))
	breakdowns := make([]metrics.Breakdown, len(keys))
	errs := make([]error, len(keys))
	keyCh := make(chan int, len(keys))
	for i := range keys {
		keyCh <- i
	}
	close(keyCh)

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range keyCh {
				results[i], breakdowns[i], errs[i] = e.queryOneThread(keys[i], concurrent)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	var total metrics.Breakdown
	for i := range keys {
		if errs[i] != nil {
			return nil, metrics.BatchStats{}, fmt.Errorf("cpupir: query %d: %w", i, errs[i])
		}
		total.Add(breakdowns[i])
	}

	// Modeled makespan: rounds of up to W concurrent queries, each round
	// costing one query at that round's ACTUAL occupancy — a final round
	// of 3 queries on a 32-thread machine contends 3 ways, not 32.
	n := uint64(e.db.NumRecords())
	var modeled time.Duration
	for done := 0; done < len(keys); done += workers {
		occ := len(keys) - done
		if occ > workers {
			occ = workers
		}
		modeled += e.cfg.Host.EvalDuration(n, 1) + e.cfg.Host.ScanDuration(e.db.SizeBytes(), occ)
	}
	stats := metrics.BatchStats{
		Queries:        len(keys),
		PerQuery:       total.Scale(len(keys)),
		WallLatency:    wall,
		ModeledLatency: modeled,
	}
	return results, stats, nil
}

// QueryShare processes a raw selector-share query (the n-server
// generalisation of §2.3): the dpXOR scan driven directly by the given
// N-bit share, with no DPF evaluation phase.
func (e *Engine) QueryShare(share *bitvec.Vector) ([]byte, metrics.Breakdown, error) {
	var bd metrics.Breakdown
	if e.db == nil {
		return nil, bd, errors.New("cpupir: no database loaded")
	}
	if share == nil {
		return nil, bd, errors.New("cpupir: nil share")
	}
	if share.Len() != e.db.NumRecords() {
		return nil, bd, fmt.Errorf("cpupir: share covers %d records, database has %d",
			share.Len(), e.db.NumRecords())
	}
	start := time.Now()
	result := make([]byte, e.db.RecordSize())
	if err := xorop.Accumulate(result, e.db.Data(), e.db.RecordSize(), share.Words()); err != nil {
		return nil, bd, fmt.Errorf("cpupir: dpXOR: %w", err)
	}
	bd.AddPhase(metrics.PhaseDpXOR, time.Since(start), e.cfg.Host.ScanDuration(e.db.SizeBytes(), 1))
	return result, bd, nil
}

// QueryShareBatch processes B raw selector-share queries in ONE fused
// streaming pass over the database — the n-server analogue of the fused
// QueryBatch. There is no eval stage: the shares ARE the selectors.
func (e *Engine) QueryShareBatch(shares []*bitvec.Vector) ([][]byte, metrics.BatchStats, error) {
	if e.db == nil {
		return nil, metrics.BatchStats{}, errors.New("cpupir: no database loaded")
	}
	if len(shares) == 0 {
		return nil, metrics.BatchStats{}, errors.New("cpupir: empty share batch")
	}
	sels := make([][]uint64, len(shares))
	for i, sh := range shares {
		if sh == nil {
			return nil, metrics.BatchStats{}, fmt.Errorf("cpupir: share %d is nil", i)
		}
		if sh.Len() != e.db.NumRecords() {
			return nil, metrics.BatchStats{}, fmt.Errorf("cpupir: share %d covers %d records, database has %d",
				i, sh.Len(), e.db.NumRecords())
		}
		sels[i] = sh.Words()
	}

	b := len(shares)
	results := make([][]byte, b)
	for i := range results {
		results[i] = make([]byte, e.db.RecordSize())
	}
	start := time.Now()
	var err error
	if e.cfg.DisableBatchFusion {
		for i := range sels {
			if err = xorop.Accumulate(results[i], e.db.Data(), e.db.RecordSize(), sels[i]); err != nil {
				break
			}
		}
	} else {
		err = xorop.AccumulateBatchWorkers(results, e.db.Data(), e.db.RecordSize(), sels, e.cfg.Threads)
	}
	if err != nil {
		return nil, metrics.BatchStats{}, fmt.Errorf("cpupir: fused dpXOR: %w", err)
	}
	wall := time.Since(start)

	var modeled time.Duration
	if e.cfg.DisableBatchFusion {
		modeled = time.Duration(b) * e.cfg.Host.ScanDuration(e.db.SizeBytes(), 1)
	} else {
		modeled = e.cfg.Host.FusedScanDuration(e.db.SizeBytes(), b, e.cfg.Threads)
	}
	var total metrics.Breakdown
	total.AddPhase(metrics.PhaseDpXOR, wall, modeled)
	stats := metrics.BatchStats{
		Queries:        b,
		PerQuery:       total.Scale(b),
		WallLatency:    wall,
		ModeledLatency: modeled,
		Fused:          !e.cfg.DisableBatchFusion,
	}
	return results, stats, nil
}

// ApplyUpdates is the uniform update entry point shared by every engine.
func (e *Engine) ApplyUpdates(updates map[uint64][]byte) error {
	return e.UpdateRecords(updates)
}

// UpdateRecords applies a bulk database update between query batches, the
// §3.3 update discipline. For the CPU baseline the database lives in host
// DRAM, so the update is an in-place rewrite. Must not run concurrently
// with queries.
func (e *Engine) UpdateRecords(updates map[uint64][]byte) error {
	if e.db == nil {
		return errors.New("cpupir: no database loaded")
	}
	if len(updates) == 0 {
		return errors.New("cpupir: empty update set")
	}
	for idx, rec := range updates {
		if idx >= uint64(e.db.NumRecords()) {
			return fmt.Errorf("cpupir: update index %d outside [0,%d)", idx, e.db.NumRecords())
		}
		if len(rec) != e.db.RecordSize() {
			return fmt.Errorf("cpupir: update for record %d has %d bytes, want %d",
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
