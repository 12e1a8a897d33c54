package impir

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/impir/impir/internal/bitvec"
	"github.com/impir/impir/internal/dpf"
	"github.com/impir/impir/internal/metrics"
)

// QueryBatch processes a batch of queries through the §3.4 pipeline:
// host-side eval workers feed a task queue, and one goroutine per DPU
// cluster drains it (Fig. 8). The returned stats carry both the measured
// wall-clock makespan and the modeled makespan on the paper's hardware,
// computed by replaying the per-query phase costs through a deterministic
// pipeline schedule.
func (e *Engine) QueryBatch(keys []*dpf.Key) ([][]byte, metrics.BatchStats, error) {
	if len(keys) == 0 {
		return nil, metrics.BatchStats{}, fmt.Errorf("impir: empty batch")
	}
	for i, k := range keys {
		if err := e.validateKey(k); err != nil {
			return nil, metrics.BatchStats{}, fmt.Errorf("impir: batch key %d: %w", i, err)
		}
	}

	type evalTask struct {
		idx int
		vec *bitvec.Vector
	}
	type queryOutcome struct {
		result      []byte
		bd          metrics.Breakdown
		evalModeled time.Duration
		pimModeled  time.Duration
		err         error
	}

	outcomes := make([]queryOutcome, len(keys))
	taskQueue := make(chan evalTask, len(keys))
	batchStart := time.Now()

	// ---- Eval stage (Alg. 1 ➋, Fig. 8 ➊-➋) ----
	var evalWG sync.WaitGroup
	switch e.cfg.EvalMode {
	case EvalPerQueryParallel:
		// One key at a time, all workers cooperating on its subtrees.
		evalWG.Add(1)
		go func() {
			defer evalWG.Done()
			defer close(taskQueue)
			for i, key := range keys {
				vec, wall, modeled, err := e.evalFull(key, e.cfg.EvalWorkers)
				outcomes[i].bd.AddPhase(metrics.PhaseEval, wall, modeled)
				outcomes[i].evalModeled = modeled
				if err != nil {
					outcomes[i].err = err
					continue
				}
				taskQueue <- evalTask{idx: i, vec: vec}
			}
		}()
	default: // EvalPerKeyWorkers
		workers := e.cfg.EvalWorkers
		if workers > len(keys) {
			workers = len(keys)
		}
		keyCh := make(chan int, len(keys))
		for i := range keys {
			keyCh <- i
		}
		close(keyCh)
		for w := 0; w < workers; w++ {
			evalWG.Add(1)
			go func() {
				defer evalWG.Done()
				for i := range keyCh {
					vec, wall, modeled, err := e.evalFull(keys[i], 1)
					outcomes[i].bd.AddPhase(metrics.PhaseEval, wall, modeled)
					outcomes[i].evalModeled = modeled
					if err != nil {
						outcomes[i].err = err
						continue
					}
					taskQueue <- evalTask{idx: i, vec: vec}
				}
			}()
		}
		go func() {
			evalWG.Wait()
			close(taskQueue)
		}()
	}

	// ---- Cluster stage (Fig. 8 ➌, Alg. 1 ➍-➏) ----
	// Each cluster goroutine greedily drains the queue into FUSED groups
	// of up to cluster.maxBatch share vectors and runs them as one dpXOR
	// launch sequence: the database chunk streams through each DPU once
	// per pass for the whole group instead of once per query.
	type fusedGroup struct {
		members []int
		modeled time.Duration
	}
	var groupMu sync.Mutex
	var groups []fusedGroup

	var clusterWG sync.WaitGroup
	for _, c := range e.clusters {
		clusterWG.Add(1)
		go func(c *cluster) {
			defer clusterWG.Done()
			width := c.maxBatch
			if e.cfg.DisableBatchFusion {
				width = 1
			}
			for task := range taskQueue {
				group := []evalTask{task}
			drain:
				for len(group) < width {
					select {
					case next, ok := <-taskQueue:
						if !ok {
							break drain
						}
						group = append(group, next)
					default:
						break drain
					}
				}
				vecs := make([]*bitvec.Vector, len(group))
				members := make([]int, len(group))
				for j, g := range group {
					vecs[j] = g.vec
					members[j] = g.idx
				}
				results, bd, err := e.runClusterBatch(c, vecs)
				perBD := bd.Scale(len(group))
				groupModeled := bd.TotalModeled()
				for j, g := range group {
					out := &outcomes[g.idx]
					out.bd.Add(perBD)
					out.pimModeled = groupModeled / time.Duration(len(group))
					if err != nil {
						out.err = err
						continue
					}
					out.result = results[j]
				}
				groupMu.Lock()
				groups = append(groups, fusedGroup{members: members, modeled: groupModeled})
				groupMu.Unlock()
			}
		}(c)
	}

	evalWG.Wait()
	clusterWG.Wait()
	wallLatency := time.Since(batchStart)

	results := make([][]byte, len(keys))
	var total metrics.Breakdown
	evalDurations := make([]time.Duration, len(keys))
	fused := false
	for i := range outcomes {
		if outcomes[i].err != nil {
			return nil, metrics.BatchStats{}, fmt.Errorf("impir: query %d: %w", i, outcomes[i].err)
		}
		results[i] = outcomes[i].result
		total.Add(outcomes[i].bd)
		evalDurations[i] = outcomes[i].evalModeled
	}

	// Modeled makespan: replay stage-1 readiness through the recorded
	// fused groups, in completion order, each on the earliest-free modeled
	// cluster. Which simulator goroutine ran a group follows host
	// scheduling, not the modeled machine, so it is not replayed.
	ready := evalReadyTimes(e.cfg.EvalMode, e.cfg.EvalWorkers, evalDurations)
	clusterFree := make([]time.Duration, len(e.clusters))
	var makespan time.Duration
	for _, g := range groups {
		if len(g.members) > 1 {
			fused = true
		}
		c := argminDur(clusterFree)
		start := clusterFree[c]
		for _, m := range g.members {
			if ready[m] > start {
				start = ready[m]
			}
		}
		finish := start + g.modeled
		clusterFree[c] = finish
		if finish > makespan {
			makespan = finish
		}
	}

	stats := metrics.BatchStats{
		Queries:        len(keys),
		PerQuery:       total.Scale(len(keys)),
		WallLatency:    wallLatency,
		ModeledLatency: makespan,
		Fused:          fused,
	}
	return results, stats, nil
}

// QueryShareBatch processes a batch of raw selector-share queries (the
// explicit-share protocol of QueryShare). Shares are chunked into fused
// groups of up to each cluster's batch capacity, distributed round-robin
// across clusters, and each group runs as one dpXOR launch sequence —
// one database pass for the whole group.
func (e *Engine) QueryShareBatch(shares []*bitvec.Vector) ([][]byte, metrics.BatchStats, error) {
	if e.db == nil {
		return nil, metrics.BatchStats{}, fmt.Errorf("impir: no database loaded")
	}
	if len(shares) == 0 {
		return nil, metrics.BatchStats{}, fmt.Errorf("impir: empty share batch")
	}
	for i, share := range shares {
		if share == nil {
			return nil, metrics.BatchStats{}, fmt.Errorf("impir: batch share %d is nil", i)
		}
		if share.Len() != e.db.NumRecords() {
			return nil, metrics.BatchStats{}, fmt.Errorf("impir: batch share %d covers %d records, database has %d",
				i, share.Len(), e.db.NumRecords())
		}
	}

	batchStart := time.Now()
	type shareChunk struct {
		cluster int
		lo, hi  int
	}
	var chunks []shareChunk
	for lo, ci := 0, 0; lo < len(shares); ci++ {
		c := e.clusters[ci%len(e.clusters)]
		width := c.maxBatch
		if e.cfg.DisableBatchFusion {
			width = 1
		}
		hi := lo + width
		if hi > len(shares) {
			hi = len(shares)
		}
		chunks = append(chunks, shareChunk{cluster: ci % len(e.clusters), lo: lo, hi: hi})
		lo = hi
	}

	results := make([][]byte, len(shares))
	chunkBDs := make([]metrics.Breakdown, len(chunks))
	chunkErrs := make([]error, len(chunks))
	fused := false
	var wg sync.WaitGroup
	for k, ch := range chunks {
		if ch.hi-ch.lo > 1 {
			fused = true
		}
		wg.Add(1)
		go func(k int, ch shareChunk) {
			defer wg.Done()
			group, bd, err := e.runClusterBatch(e.clusters[ch.cluster], shares[ch.lo:ch.hi])
			chunkBDs[k] = bd
			if err != nil {
				chunkErrs[k] = err
				return
			}
			copy(results[ch.lo:], group)
		}(k, ch)
	}
	wg.Wait()
	wallLatency := time.Since(batchStart)

	var total metrics.Breakdown
	clusterBusy := make([]time.Duration, len(e.clusters))
	var makespan time.Duration
	for k, ch := range chunks {
		if chunkErrs[k] != nil {
			return nil, metrics.BatchStats{}, fmt.Errorf("impir: share group %d: %w", k, chunkErrs[k])
		}
		total.Add(chunkBDs[k])
		clusterBusy[ch.cluster] += chunkBDs[k].TotalModeled()
		if clusterBusy[ch.cluster] > makespan {
			makespan = clusterBusy[ch.cluster]
		}
	}

	return results, metrics.BatchStats{
		Queries:        len(shares),
		PerQuery:       total.Scale(len(shares)),
		WallLatency:    wallLatency,
		ModeledLatency: makespan,
		Fused:          fused,
	}, nil
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
