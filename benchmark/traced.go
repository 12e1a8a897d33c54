package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"

	"github.com/impir/impir"
	"github.com/impir/impir/internal/metrics"
)

// counters is everything the layers count, read at one instant.
type counters struct {
	at    time.Time
	store impir.StoreStats
	kv    impir.KVStats
	sched []metrics.SchedulerStats // one per server
	up    int64
	down  int64
	mem   runtime.MemStats
	cpu   time.Duration // user + system, this process
}

func (d *deployment) snapshot() (counters, error) {
	c := counters{at: time.Now(), store: d.store.Stats(), up: d.wire.up.Load(), down: d.wire.down.Load()}
	if d.kv != nil {
		c.kv = d.kv.Stats()
	}
	for _, cohort := range d.servers {
		for _, srv := range cohort {
			c.sched = append(c.sched, srv.QueueStats())
		}
	}
	runtime.ReadMemStats(&c.mem)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return c, fmt.Errorf("getrusage: %w", err)
	}
	c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return c, nil
}

// ratio is a/b, and 0 where the workload never exercises the counter.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runTraced produces the per-layer metrics. Its measured time splits
// 4:4:2 between (a) the workload's normal load with every layer's
// counters read before and after, (b) the ladder, and (c) the
// standalone kernel probes.
func runTraced(ctx context.Context, w workload, seed uint64, total time.Duration, out string) (result, error) {
	d, err := setup(ctx, w, seed)
	if err != nil {
		return result{}, err
	}
	defer d.close()
	if err := d.selfCheck(ctx, seed); err != nil {
		return result{}, err
	}
	m := map[string]float64{}
	arrivals := newRNG(seed, streamArrivals)
	d.runRound(ctx, newRNG(seed, streamWarmup), arrivals, total/10)
	runtime.GC()

	// (a) counters around untraced load.
	before, err := d.snapshot()
	if err != nil {
		return result{}, err
	}
	rd := d.runRound(ctx, newRNG(seed, streamRounds), arrivals, total*4/10)
	after, err := d.snapshot()
	if err != nil {
		return result{}, err
	}
	d.counterMetrics(before, after, rd, m)

	// (b) the ladder.
	l, err := newLadder(ctx, d)
	if err != nil {
		return result{}, fmt.Errorf("ladder: %w", err)
	}
	defer l.close()
	attempted, failed, mismatched := rd.attempted, rd.failed, rd.mismatched
	r := newRNG(seed, streamLadder)
	for start := time.Now(); time.Since(start) < total*4/10; {
		attempted++
		if err := l.step(ctx, r); err != nil {
			failed++
			if errors.Is(err, errMismatch) {
				mismatched++
			}
			fmt.Fprintf(os.Stderr, "benchmark: %s: ladder op failed: %v\n", w.name, err)
		}
	}
	if len(l.rungs) == 0 {
		return result{}, fmt.Errorf("ladder: no op completed")
	}
	if err := l.write(out); err != nil {
		return result{}, err
	}
	d.ladderMetrics(l, m)

	// (c) kernel probes.
	if err := d.runProbes(ctx, seed, total*2/10, m); err != nil {
		return result{}, fmt.Errorf("probe: %w", err)
	}

	res := result{Correct: mismatched == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, def := range perLayer {
		res.Metrics[def.name] = metric{Value: m[def.name], Unit: def.unit}
	}
	for name := range m {
		if _, ok := res.Metrics[name]; !ok {
			return result{}, fmt.Errorf("metric %s computed but not declared", name)
		}
	}
	return res, nil
}

// counterMetrics turns two snapshots around rd into per-op costs.
func (d *deployment) counterMetrics(before, after counters, rd round, m map[string]float64) {
	all := merge([]round{rd})
	ops := float64(rd.ok())
	wall := after.at.Sub(before.at).Seconds()

	m["client.p50_ms"] = quantile(all.reads, 0.50)
	m["client.p90_ms"] = quantile(all.reads, 0.90)
	m["client.p99_ms"] = quantile(all.reads, 0.99)
	m["client.max_ms"] = quantile(all.reads, 1)
	m["client.write_p50_ms"] = quantile(all.writes, 0.50)
	m["client.open_ms"] = float64(d.times.open) / float64(time.Millisecond)

	st := metrics.DeltaStore(after.store, before.store)
	m["client.subqueries_per_op"] = ratio(float64(st.TotalSubQueries()), ops)
	m["client.retries_per_op"] = ratio(float64(st.Retries), ops)
	m["client.hedges_per_op"] = ratio(float64(st.Hedges), ops)
	var rtt time.Duration
	for _, sh := range st.Shards {
		rtt = max(rtt, sh.AvgTime())
	}
	m["cluster.shard_rtt_ms"] = float64(rtt) / float64(time.Millisecond)
	m["cluster.split_ms"] = float64(d.times.split) / float64(time.Millisecond)

	m["transport.bytes_up_per_op"] = ratio(float64(after.up-before.up), ops)
	m["transport.bytes_down_per_op"] = ratio(float64(after.down-before.down), ops)

	var sched metrics.SchedulerStats
	for i := range after.sched {
		dl := metrics.Delta(after.sched[i], before.sched[i])
		sched.Dispatched += dl.Dispatched
		sched.Passes += dl.Passes
		sched.FusedPasses += dl.FusedPasses
		sched.Rejected += dl.Rejected
		sched.TotalWait += dl.TotalWait
		sched.Updates += dl.Updates
		sched.MaxDepth = max(sched.MaxDepth, dl.MaxDepth)
	}
	m["scheduler.queue_wait_us"] = float64(sched.AvgWait()) / float64(time.Microsecond)
	m["scheduler.max_depth"] = float64(sched.MaxDepth)
	m["scheduler.rejected"] = float64(sched.Rejected)
	m["scheduler.pass_width_mean"] = sched.AvgCoalesce()
	m["scheduler.fused_share"] = ratio(float64(sched.FusedPasses), float64(sched.Passes))
	m["scheduler.updates_per_put"] = ratio(float64(sched.Updates), float64(len(rd.writes)))

	m["runtime.allocs_per_op"] = ratio(float64(after.mem.Mallocs-before.mem.Mallocs), ops)
	m["runtime.alloc_bytes_per_op"] = ratio(float64(after.mem.TotalAlloc-before.mem.TotalAlloc), ops)
	m["runtime.gc_pause_ms"] = float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6
	cpu := (after.cpu - before.cpu).Seconds()
	m["runtime.cpu_s_per_op"] = ratio(cpu, ops)
	m["runtime.cpu_util"] = ratio(cpu, wall*float64(runtime.NumCPU()))

	m["loadgen.max_late_ms"] = float64(rd.maxLate) / float64(time.Millisecond)
	m["loadgen.lost"] = float64(rd.lost)
	m["loadgen.inflight_max"] = float64(rd.inflightMax)

	m["impir.load_ms"] = float64(d.times.load) / float64(time.Millisecond)
	if d.kv != nil {
		m["keyword.build_s"] = d.times.build.Seconds()
		m["batchcode.encode_s"] = d.times.encode.Seconds()
		lookups := float64(after.kv.Hits + after.kv.Misses - before.kv.Hits - before.kv.Misses)
		keyOps := float64(after.kv.Gets + after.kv.Puts - before.kv.Gets - before.kv.Puts)
		m["keyword.probes_per_key"] = ratio(float64(after.kv.ProbedBuckets-before.kv.ProbedBuckets), keyOps)
		m["keyword.hit_share"] = ratio(float64(after.kv.Hits-before.kv.Hits), lookups)
		m["batchcode.subqueries_per_batch"] = ratio(float64(st.CodedQueries), float64(st.CodedBatches))
		m["batchcode.fallback_share"] = ratio(float64(st.CodeFallbacks), float64(st.CodedBatches+st.CodeFallbacks))
		m["batchcode.expansion"] = ratio(float64(d.code.TotalRows()), float64(d.code.NumRecords))
	}
}

// ladderMetrics turns the sampled rungs into per-layer self times.
func (d *deployment) ladderMetrics(l *ladder, m map[string]float64) {
	us, ms := float64(time.Microsecond), float64(time.Millisecond)
	op := l.pick(func(rt rungTimes) time.Duration { return rt.op }, us)
	// below is what the index store spends under the keyword layer; for
	// index workloads it is the op itself.
	below := func(rt rungTimes) time.Duration {
		if d.kv != nil {
			return rt.retrieveBatch
		}
		return rt.op
	}
	rungs := func(rt rungTimes) time.Duration { return rt.plan + rt.keygen + rt.query + rt.reconstruct }

	m["client.keygen_us"] = l.pick(func(rt rungTimes) time.Duration { return rt.keygen }, us)
	m["client.reconstruct_us"] = l.pick(func(rt rungTimes) time.Duration { return rt.reconstruct }, us)
	m["client.self_us"] = l.pick(func(rt rungTimes) time.Duration { return below(rt) - rungs(rt) }, us)
	m["transport.dial_ms"] = float64(l.dial) / ms
	m["transport.query_us"] = l.pick(func(rt rungTimes) time.Duration { return rt.query }, us)
	m["transport.self_us"] = l.pick(func(rt rungTimes) time.Duration { return rt.query - rt.answer }, us)
	m["scheduler.self_us"] = l.pick(func(rt rungTimes) time.Duration { return rt.answer - rt.engine }, us)
	m["server.answer_us"] = l.pick(func(rt rungTimes) time.Duration { return rt.answer }, us)
	m["server.kernel_share"] = l.pick(func(rt rungTimes) time.Duration { return rt.eval + rt.scan }, us) / m["server.answer_us"]
	if d.kv != nil {
		m["keyword.self_us"] = l.pick(func(rt rungTimes) time.Duration { return rt.op - rt.retrieveBatch }, us)
		m["batchcode.plan_us"] = l.pick(func(rt rungTimes) time.Duration { return rt.plan }, us)
	}
	if d.w.engine == impir.EnginePIM {
		// Host time of the simulator next to what the simulated machine
		// would take; the two never share a column.
		m["impir.answer_batch8_ms"] = l.pick(func(rt rungTimes) time.Duration { return rt.engine }, ms)
		m["impir.modeled_batch8_ms"] = l.pick(func(rt rungTimes) time.Duration { return rt.modeled }, ms)
		m["impir.modeled_qps"] = ratio(float64(d.w.batch)*1e3, m["impir.modeled_batch8_ms"])
	} else {
		m["cpupir.answer_us"] = l.pick(func(rt rungTimes) time.Duration { return rt.engine }, us)
		m["cpupir.eval_us"] = l.pick(func(rt rungTimes) time.Duration { return rt.eval }, us)
		m["cpupir.scan_us"] = l.pick(func(rt rungTimes) time.Duration { return rt.scan }, us)
	}

	m["trace.sampled_ops"] = float64(len(l.rungs))
	m["trace.op_us"] = op
	m["trace.overhead_share"] = ratio(op/1e3-m["client.p50_ms"], m["client.p50_ms"])
	m["trace.explained_share"] = l.pick(rungs, us) / op
	m["trace.explained_sum_share"] = l.pick(func(rt rungTimes) time.Duration { return rungs(rt) - rt.query + rt.querySum }, us) / op
	m["trace.kernel_share"] = l.pick(func(rt rungTimes) time.Duration { return rt.eval + rt.scan }, us) / op
}
