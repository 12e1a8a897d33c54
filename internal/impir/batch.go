package impir

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/impir/impir/internal/dpf"
	"github.com/impir/impir/internal/metrics"
	"github.com/impir/impir/internal/xorop"
)

// Pass answers B queries through the §3.4 pipeline in one pass. Expand:
// the host evaluates every key (a lone key with all EvalWorkers
// cooperating on its subtrees, a wider pass one worker per key; shares
// need no evaluation). Scan: the selectors split into fused groups of the
// cluster batch capacity, assigned to the clusters in turn from a
// round-robin start so concurrent passes fan out, and each group runs as
// one dpXOR launch sequence — one database pass for the whole group.
//
// The returned stats carry the measured wall-clock latency and the
// modeled makespan on the paper's hardware. The makespan replays Fig. 8:
// each group enters its cluster once its members' evaluations would have
// finished on W eval workers and the cluster is free, so the model keeps
// the eval ‖ scan overlap the paper's pipeline has even though the
// simulator expands first.
func (e *Engine) Pass(in dpf.Batch) ([][]byte, metrics.BatchStats, error) {
	if e.db == nil {
		return nil, metrics.BatchStats{}, errors.New("impir: no database loaded")
	}
	b := in.Len()
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

	// Chunks of the cluster batch capacity, taking the clusters in turn.
	width := e.clusters[0].maxBatch
	groups := (b + width - 1) / width
	first := int(e.rr.Add(uint64(groups)) - uint64(groups))
	clusterOf := func(g int) int { return (first + g) % len(e.clusters) }
	results := xorop.NewAccumulators(b, e.db.RecordSize())
	bds := make([]metrics.Breakdown, groups)
	errs := make([]error, groups)
	var wg sync.WaitGroup
	for g := range groups {
		lo, hi := g*width, min((g+1)*width, b)
		c := e.clusters[clusterOf(g)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			bds[g], errs[g] = e.runGroup(c, sels[lo:hi], results[lo:hi])
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	if err := errors.Join(errs...); err != nil {
		return nil, metrics.BatchStats{}, err
	}

	// Each group occupies the cluster it ran on from the moment its
	// members' evaluations are done and that cluster is free.
	ready := evalReadyTimes(EvalPerKeyWorkers, e.cfg.EvalWorkers, evalDur)
	clusterFree := make([]time.Duration, len(e.clusters))
	var makespan time.Duration
	for g, bd := range bds {
		total.Add(bd)
		c := clusterOf(g)
		start := clusterFree[c]
		for _, r := range ready[g*width : min((g+1)*width, b)] {
			start = max(start, r)
		}
		clusterFree[c] = start + bd.TotalModeled()
		makespan = max(makespan, clusterFree[c])
	}
	return results, metrics.BatchStats{
		Queries:        b,
		PerQuery:       total.Scale(b),
		WallLatency:    wall,
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
