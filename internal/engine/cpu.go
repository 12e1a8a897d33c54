package engine

import (
	"fmt"
	"time"

	"github.com/impir/impir/internal/database"
	"github.com/impir/impir/internal/dpf"
	"github.com/impir/impir/internal/hostmodel"
	"github.com/impir/impir/internal/metrics"
)

// CPUPricer prices a pass on the paper's processor-centric baseline, a
// multi-server PIR server in the style of Google's DPF implementation on
// the 32-thread dual-Xeon of §5.1 (hostmodel.CPUPIRBaseline). It is what
// Figures 9, 10(b), 12 and Table 1 compare IM-PIR against. A lone query
// runs end to end on one thread, as the baseline does; a wider pass
// expands one key per thread and streams the database once for all B
// selectors. The measured fused scan XORs each selected record once per
// 8 selectors (xorop's subset table), less XOR work than the modeled
// baseline, which charges B × dbBytes/2 of XOR per pass
// (hostmodel.FusedScanDuration).
type CPUPricer struct {
	threads int
	host    hostmodel.Model
}

// NewCPUPricer returns the baseline pricer with the given worker count;
// 0 means 32, the baseline server's hardware threads.
func NewCPUPricer(threads int) (*CPUPricer, error) {
	if threads == 0 {
		threads = 32
	}
	if threads < 1 {
		return nil, fmt.Errorf("engine: CPU threads %d must be ≥ 1", threads)
	}
	return &CPUPricer{threads: threads, host: hostmodel.CPUPIRBaseline()}, nil
}

// Name implements Pricer.
func (c *CPUPricer) Name() string { return "CPU-PIR" }

// Schedule gives a lone query one thread (§5.1: "a single CPU thread for
// each query") and a wider pass every worker, each key on one thread of
// Google's chunked (memory-bounded) traversal.
func (c *CPUPricer) Schedule(width int) Schedule {
	threads := c.threads
	if width == 1 {
		threads = 1
	}
	return Schedule{ExpandWorkers: threads, Strategy: dpf.StrategyMemoryBounded, ScanThreads: threads}
}

// Layout implements Pricer: the baseline scans main memory directly.
func (c *CPUPricer) Layout(*database.DB) error { return nil }

// Price charges min(B, threads) keys at a time, one thread each (eval
// has no memory contention, so the rounds stack), then one fused scan.
func (c *CPUPricer) Price(p Pass) (metrics.Breakdown, time.Duration, error) {
	b := p.In.Len()
	threads := c.Schedule(b).ScanThreads
	var bd metrics.Breakdown
	var eval time.Duration
	if p.In.Keys != nil {
		rounds := (b + threads - 1) / threads
		eval = time.Duration(rounds) * c.host.EvalDuration(uint64(p.DB.NumRecords()), 1)
		bd.AddPhase(metrics.PhaseEval, 0, eval)
	}
	scan := c.host.FusedScanDuration(p.DB.SizeBytes(), b, threads)
	bd.AddPhase(metrics.PhaseDpXOR, 0, scan)
	return bd, eval + scan, nil
}
