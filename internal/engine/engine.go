// Package engine is the one PIR server engine. The paper's §5 runs the
// same algorithm on three machines — IM-PIR on UPMEM, the 32-thread CPU
// baseline and Lam et al.'s GPU — and so does this engine: every pass is
// expand (DPF full-domain evaluation through dpf's shared front end, Alg.
// 1 ➋), then scan (xorop's fused dpXOR over the database), then price.
// Only the price differs by machine, so a machine is a Pricer: it names
// the thread layout the measured stages run with, lays the
// database out on its modeled hardware, and turns a pass into the
// latency that hardware would show. The CPU baseline's pricer lives
// here; the GPU's is gpupir.Pricer and the PIM machine's impir.Pricer.
//
// An engine holds, expands and scans exactly the N records it was
// loaded with. Clients query the 2^d index space of the smallest
// covering domain, and the indices from N on name zero records, so
// nothing is lost by never storing them: a key is evaluated only over
// its first N leaves (dpf.FullEvalOptions.Leaves), the scan reads only
// the first N bits of each selector, and the answers are bit-identical
// to a scan of the zero-padded database.
//
// Answers are bit-exact whatever the pricer: any partition of the scan —
// a CUDA grid, DPU chunks, CPU threads — XORs to the same bytes, and the
// pricer packages' tests hold the host scan to their hardware's
// functional model.
package engine

import (
	"errors"
	"fmt"
	"time"

	"github.com/impir/impir/internal/database"
	"github.com/impir/impir/internal/dpf"
	"github.com/impir/impir/internal/metrics"
	"github.com/impir/impir/internal/xorop"
)

// Schedule is the thread layout of a pass's measured stages.
type Schedule struct {
	// ExpandWorkers bounds the DPF evaluation threads: a lone key gets
	// all of them, a wider pass one per key (dpf.Batch.Expand). ≤ 0
	// means GOMAXPROCS.
	ExpandWorkers int
	// Strategy is the DPF tree traversal every key runs.
	Strategy dpf.Strategy
	// ScanThreads bounds the dpXOR scan workers (xorop.Scan).
	ScanThreads int
}

// Pass is what a pricer sees of one answered pass.
type Pass struct {
	// In is the pass's keys or shares.
	In dpf.Batch
	// Selectors are the expanded selectors, one per query. Each spans
	// the 2^d index space and may be longer than DB: a key's selector is
	// zero beyond DB's records, a share's tail bits are whatever the
	// client sent, and the scan ignored them.
	Selectors [][]uint64
	// DB is the database the pass scanned: the N records loaded, with
	// no padding.
	DB *database.DB
}

// Pricer models one machine running the pass.
type Pricer interface {
	// Name identifies the machine in benchmark reports.
	Name() string
	// Schedule returns the thread layout of a pass of the given width.
	Schedule(width int) Schedule
	// Layout places the loaded database's N records on the modeled
	// machine. It runs at load time, never concurrently with Price.
	Layout(db *database.DB) error
	// Price returns the pass's modeled per-phase breakdown (its Wall
	// columns zero; the engine measures those) and its modeled latency.
	// Concurrent passes may price at once.
	Price(p Pass) (metrics.Breakdown, time.Duration, error)
}

// Engine is one PIR server's compute plane: its own copy of the N
// records it was loaded with and the pricer of the machine it models.
// Passes may run concurrently; LoadDatabase and ApplyUpdates must not
// run beside them (the request scheduler quiesces passes around
// updates).
type Engine struct {
	pricer Pricer
	db     *database.DB // the loaded records, unpadded
}

// New builds an engine priced by p.
func New(p Pricer) *Engine { return &Engine{pricer: p} }

// Name identifies the engine in benchmark reports: "IM-PIR", "CPU-PIR"
// or "GPU-PIR".
func (e *Engine) Name() string { return e.pricer.Name() }

// Database returns the engine's copy of the loaded database, or nil.
func (e *Engine) Database() *database.DB { return e.db }

// LoadDatabase copies db's N records, so that updates to the engine and
// to the caller's database stay independent, and lays them out on the
// pricer's machine. Loading is a one-time cost outside query latency, as
// in the paper's setups (§5.1).
func (e *Engine) LoadDatabase(db *database.DB) error {
	if db == nil {
		return errors.New("engine: nil database")
	}
	if db.RecordSize()%8 != 0 {
		return fmt.Errorf("engine: record size %d must be a multiple of 8", db.RecordSize())
	}
	own := db.Clone()
	if err := e.pricer.Layout(own); err != nil {
		return err
	}
	e.db = own
	return nil
}

// Pass answers B queries in one pass: expand every key, then one fused
// dpXOR over the database accumulates all B subresults, then the pricer
// models the pass on its machine. The stats carry the measured wall
// time and the modeled latency side by side, never mixed.
func (e *Engine) Pass(in dpf.Batch) ([][]byte, metrics.BatchStats, error) {
	if e.db == nil {
		return nil, metrics.BatchStats{}, errors.New("engine: no database loaded")
	}
	b := in.Len()
	s := e.pricer.Schedule(b)
	start := time.Now()
	sels, err := in.Expand(e.db.NumRecords(), s.ExpandWorkers, s.Strategy)
	if err != nil {
		return nil, metrics.BatchStats{}, fmt.Errorf("engine: %w", err)
	}
	evalWall := time.Since(start)
	results, err := xorop.Scan(e.db.Data(), e.db.RecordSize(), sels, s.ScanThreads)
	if err != nil {
		return nil, metrics.BatchStats{}, fmt.Errorf("engine: dpXOR: %w", err)
	}
	scanWall := time.Since(start) - evalWall
	total, modeled, err := e.pricer.Price(Pass{In: in, Selectors: sels, DB: e.db})
	if err != nil {
		return nil, metrics.BatchStats{}, fmt.Errorf("engine: %w", err)
	}
	if in.Keys != nil {
		total.Wall[metrics.PhaseEval] = evalWall
	}
	total.Wall[metrics.PhaseDpXOR] = scanWall
	return results, metrics.BatchStats{
		Queries:        b,
		PerQuery:       total.Scale(b),
		WallLatency:    time.Since(start),
		ModeledLatency: modeled,
		Fused:          b > 1,
	}, nil
}

// ApplyUpdates applies a §3.3 bulk update between passes, rewriting the
// host copy every pass scans. Every entry is validated before any is
// written; an index at or beyond the N loaded records is refused.
func (e *Engine) ApplyUpdates(updates map[uint64][]byte) error {
	if e.db == nil {
		return errors.New("engine: no database loaded")
	}
	return e.db.ApplyUpdates(updates)
}

// Close releases the engine. It holds no external resources; Close
// exists for symmetry with real deployments.
func (e *Engine) Close() error { return nil }
