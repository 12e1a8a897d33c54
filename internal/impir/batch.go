package impir

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"github.com/impir/impir/internal/dpf"
	"github.com/impir/impir/internal/metrics"
	"github.com/impir/impir/internal/pimkernel"
	"github.com/impir/impir/internal/xorop"
)

// Pass answers B queries through the §3.4 pipeline in one pass. Expand:
// the host evaluates every key (a lone key with all EvalWorkers
// cooperating on its subtrees, a wider pass one worker per key; shares
// need no evaluation). Scan: xorop.Scan, the one fused host dpXOR every
// engine answers with, on the host's threads, computes every answer.
//
// The returned stats carry the measured wall-clock latency and the
// modeled makespan on the paper's hardware. The model splits the
// selectors into fused groups of the cluster batch width, assigned to
// the clusters in turn from a round-robin start so concurrent passes fan
// out; pimkernel.ReplayCost prices each group as one dpXOR launch
// sequence — one database pass for the whole group. The makespan replays
// Fig. 8: each group enters its cluster once its members' evaluations
// would have finished on W eval workers and the cluster is free, so the
// model keeps the eval ‖ scan overlap the paper's pipeline has even
// though the host expands first.
func (e *Engine) Pass(in dpf.Batch) ([][]byte, metrics.BatchStats, error) {
	if e.db == nil {
		return nil, metrics.BatchStats{}, errors.New("impir: no database loaded")
	}
	b := in.Len()
	recordSize := e.db.RecordSize()
	start := time.Now()
	sels, err := in.Expand(e.domain, e.cfg.EvalWorkers, dpf.StrategySubtree) // the paper's choice (§3.2)
	if err != nil {
		return nil, metrics.BatchStats{}, fmt.Errorf("impir: %w", err)
	}
	evalWall := time.Since(start)
	evalDur := make([]time.Duration, b)
	var total metrics.Breakdown
	if in.Keys != nil {
		threads := 1
		if b == 1 {
			threads = e.cfg.EvalWorkers
		}
		d := e.cfg.Host.EvalDuration(uint64(e.db.NumRecords()), threads)
		for i := range evalDur {
			evalDur[i] = d
		}
		total.AddPhase(metrics.PhaseEval, evalWall, time.Duration(b)*d)
	}

	scanStart := time.Now()
	results, err := xorop.Scan(e.db.Data(), recordSize, sels, e.cfg.Host.Threads)
	if err != nil {
		return nil, metrics.BatchStats{}, fmt.Errorf("impir: dpXOR: %w", err)
	}
	total.AddPhase(metrics.PhaseDpXOR, time.Since(scanStart), 0)

	// Each group occupies the cluster it is assigned from the moment its
	// members' evaluations are done and that cluster is free.
	width := e.width
	groups := (b + width - 1) / width
	first := int(e.rr.Add(uint64(groups)) - uint64(groups))
	ready := evalReadyTimes(EvalPerKeyWorkers, e.cfg.EvalWorkers, evalDur)
	clusterFree := make([]time.Duration, len(e.clusters))
	var makespan time.Duration
	for g := range groups {
		lo, hi := g*width, min((g+1)*width, b)
		c := (first + g) % len(e.clusters)
		passes, err := pimkernel.ReplayCost(e.cfg.PIM, e.clusters[c], sels[lo:hi])
		if err != nil {
			return nil, metrics.BatchStats{}, fmt.Errorf("impir: %w", err)
		}
		var bd metrics.Breakdown
		for _, p := range passes {
			bd.AddPhase(metrics.PhaseCopyToPIM, 0, p.Stage.Modeled+p.Scatter.Modeled)
			bd.AddPhase(metrics.PhaseDpXOR, 0, p.Launch.Modeled)
			bd.AddPhase(metrics.PhaseCopyToHost, 0, p.Gather.Modeled)
			bd.AddPhase(metrics.PhaseAggregate, 0, e.cfg.Host.XORFoldDuration(p.Folds, recordSize))
		}
		total.Add(bd)
		at := clusterFree[c]
		for _, r := range ready[lo:hi] {
			at = max(at, r)
		}
		clusterFree[c] = at + bd.TotalModeled()
		makespan = max(makespan, clusterFree[c])
	}
	return results, metrics.BatchStats{
		Queries:        b,
		PerQuery:       total.Scale(b),
		WallLatency:    time.Since(start),
		ModeledLatency: makespan,
		Fused:          b > 1,
	}, nil
}

// EvalMode names the two host-side evaluation schedules of §3.4 that the
// modeled pipeline and the paper figures compare. The engine's Pass uses
// both: a lone key runs per-query-parallel, a wider pass per-key.
type EvalMode int

const (
	// EvalPerKeyWorkers is the paper's Fig. 8 workflow: W worker threads
	// each evaluate a different key concurrently (one thread per key)
	// and feed the shared task queue.
	EvalPerKeyWorkers EvalMode = iota + 1
	// EvalPerQueryParallel evaluates one key at a time with all workers
	// cooperating on its subtree partition (§3.2).
	EvalPerQueryParallel
)

func (m EvalMode) String() string {
	switch m {
	case EvalPerKeyWorkers:
		return "per-key-workers"
	case EvalPerQueryParallel:
		return "per-query-parallel"
	default:
		return fmt.Sprintf("EvalMode(%d)", int(m))
	}
}

// ModeledMakespan replays the batch through a deterministic two-stage
// pipeline schedule on the paper's hardware: stage 1 is the eval workers
// (W parallel single-thread servers, or one W-thread server in
// per-query-parallel mode), stage 2 is the C DPU clusters. Each query
// enters stage 2 when its eval finishes and a cluster is free.
func ModeledMakespan(mode EvalMode, workers, clusters int, evalDur, pimDur []time.Duration) time.Duration {
	n := len(evalDur)
	ready := evalReadyTimes(mode, workers, evalDur)

	// Queries reach the task queue in eval-completion order.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return ready[order[a]] < ready[order[b]] })

	clusterFree := make([]time.Duration, clusters)
	var makespan time.Duration
	for _, i := range order {
		c := argminDur(clusterFree)
		start := ready[i]
		if clusterFree[c] > start {
			start = clusterFree[c]
		}
		finish := start + pimDur[i]
		clusterFree[c] = finish
		if finish > makespan {
			makespan = finish
		}
	}
	return makespan
}

// evalReadyTimes models stage 1 of the pipeline: when each query's
// selector share becomes available to the cluster stage, given the eval
// scheduling mode (see ModeledMakespan).
func evalReadyTimes(mode EvalMode, workers int, evalDur []time.Duration) []time.Duration {
	n := len(evalDur)
	ready := make([]time.Duration, n)
	switch mode {
	case EvalPerQueryParallel:
		// Sequential evals, each using every worker.
		var t time.Duration
		for i := 0; i < n; i++ {
			t += evalDur[i]
			ready[i] = t
		}
	default:
		// W parallel eval servers, greedy assignment in key order.
		if workers > n {
			workers = n
		}
		free := make([]time.Duration, workers)
		for i := 0; i < n; i++ {
			w := argminDur(free)
			free[w] += evalDur[i]
			ready[i] = free[w]
		}
	}
	return ready
}

func argminDur(xs []time.Duration) int {
	best := 0
	for i := 1; i < len(xs); i++ {
		if xs[i] < xs[best] {
			best = i
		}
	}
	return best
}
