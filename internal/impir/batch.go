package impir

import (
	"fmt"
	"sort"
	"time"

	"github.com/impir/impir/internal/engine"
	"github.com/impir/impir/internal/metrics"
	"github.com/impir/impir/internal/pim"
)

// Price models a pass as the §3.4 pipeline on the paper's hardware. It
// splits the selectors into fused groups of the cluster batch width,
// assigned to the clusters in turn from a round-robin start so
// concurrent passes fan out; pim.ReplayCost prices each group as
// one dpXOR launch sequence — one database pass for the whole group. The
// makespan replays Fig. 8: each group enters its cluster once its
// members' evaluations would have finished on W eval workers and the
// cluster is free, so the model keeps the eval ‖ scan overlap the
// paper's pipeline has even though the host expands first.
func (p *Pricer) Price(pass engine.Pass) (metrics.Breakdown, time.Duration, error) {
	b := pass.In.Len()
	recordSize := pass.DB.RecordSize()
	evalDur := make([]time.Duration, b)
	var total metrics.Breakdown
	if pass.In.Keys != nil {
		threads := 1
		if b == 1 {
			threads = p.cfg.EvalWorkers
		}
		d := p.cfg.Host.EvalDuration(uint64(pass.DB.NumRecords()), threads)
		for i := range evalDur {
			evalDur[i] = d
		}
		total.AddPhase(metrics.PhaseEval, 0, time.Duration(b)*d)
	}

	// Each group occupies the cluster it is assigned from the moment its
	// members' evaluations are done and that cluster is free.
	width := p.width
	groups := (b + width - 1) / width
	first := int(p.rr.Add(uint64(groups)) - uint64(groups))
	ready := evalReadyTimes(EvalPerKeyWorkers, p.cfg.EvalWorkers, evalDur)
	clusterFree := make([]time.Duration, len(p.clusters))
	var makespan time.Duration
	for g := range groups {
		lo, hi := g*width, min((g+1)*width, b)
		c := (first + g) % len(p.clusters)
		passes, err := pim.ReplayCost(p.cfg.PIM, p.clusters[c], pass.Selectors[lo:hi])
		if err != nil {
			return metrics.Breakdown{}, 0, fmt.Errorf("impir: %w", err)
		}
		var bd metrics.Breakdown
		for _, rp := range passes {
			bd.AddPhase(metrics.PhaseCopyToPIM, 0, rp.Stage.Modeled+rp.Scatter.Modeled)
			bd.AddPhase(metrics.PhaseDpXOR, 0, rp.Launch.Modeled)
			bd.AddPhase(metrics.PhaseCopyToHost, 0, rp.Gather.Modeled)
			bd.AddPhase(metrics.PhaseAggregate, 0, p.cfg.Host.XORFoldDuration(rp.Folds, recordSize))
		}
		total.Add(bd)
		at := clusterFree[c]
		for _, r := range ready[lo:hi] {
			at = max(at, r)
		}
		clusterFree[c] = at + bd.TotalModeled()
		makespan = max(makespan, clusterFree[c])
	}
	return total, makespan, nil
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
