package main

import (
	"context"
	"errors"
	"runtime"
	"sort"
	"sync"
	"time"
)

// round is what one timed stretch of load produced. Latencies are in
// milliseconds; a failed op (error, timeout, lost arrival, mismatch)
// counts in attempted and failed and has no latency.
type round struct {
	dur        time.Duration
	reads      []float64 // ok read latencies (closed loop: from send; open loop: from due time)
	writes     []float64 // ok Put latencies
	attempted  int
	failed     int
	mismatched int
	withinSLO  int

	// open loop only
	lost        int
	inflightMax int
	maxLate     time.Duration
}

func (rd *round) record(w workload, o op, elapsed time.Duration, err error) {
	rd.attempted++
	if err != nil {
		rd.failed++
		if errors.Is(err, errMismatch) {
			rd.mismatched++
		}
		return
	}
	if elapsed <= w.slo {
		rd.withinSLO++
	}
	ms := float64(elapsed) / float64(time.Millisecond)
	if o.write {
		rd.writes = append(rd.writes, ms)
	} else {
		rd.reads = append(rd.reads, ms)
	}
}

func (rd *round) ok() int { return rd.attempted - rd.failed }

// runRound drives the workload's load shape for dur.
func (d *deployment) runRound(ctx context.Context, ops, arrivals *rng, dur time.Duration) round {
	if d.w.rate > 0 {
		return d.openRound(ctx, ops, arrivals, dur)
	}
	return d.closedRound(ctx, ops, dur)
}

// closedRound is one client issuing its next op when the previous one
// returns. One client on purpose: the servers' own eval/scan goroutines
// already fill this box's cores, and a second client only adds
// scheduling noise to every number.
func (d *deployment) closedRound(ctx context.Context, ops *rng, dur time.Duration) round {
	var rd round
	start := time.Now()
	for time.Since(start) < dur {
		o := d.next(ops, false)
		t0 := time.Now()
		err := d.do(ctx, o)
		rd.record(d.w, o, time.Since(t0), err)
	}
	rd.dur = time.Since(start)
	return rd
}

// openRound sends on a Poisson schedule whatever the servers do. Each
// op's latency runs from the instant it was due, so a stall is charged
// to every arrival it delayed; an arrival finding maxInFlight ops in
// flight is dropped and counted lost.
func (d *deployment) openRound(ctx context.Context, ops, arrivals *rng, dur time.Duration) round {
	var (
		rd       round
		mu       sync.Mutex
		wg       sync.WaitGroup
		inflight int
	)
	gap := float64(time.Second) / d.w.rate
	start := time.Now()
	for due := time.Duration(arrivals.exp() * gap); due < dur; due += time.Duration(arrivals.exp() * gap) {
		if wait := due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		if late := time.Since(start) - due; late > rd.maxLate {
			rd.maxLate = late
		}
		o := d.next(ops, false)
		mu.Lock()
		if inflight >= maxInFlight {
			rd.lost++
			rd.attempted++
			rd.failed++
			mu.Unlock()
			continue
		}
		inflight++
		if inflight > rd.inflightMax {
			rd.inflightMax = inflight
		}
		mu.Unlock()
		wg.Add(1)
		go func(o op, due time.Duration) {
			defer wg.Done()
			err := d.do(ctx, o)
			elapsed := time.Since(start) - due
			mu.Lock()
			inflight--
			rd.record(d.w, o, elapsed, err)
			mu.Unlock()
		}(o, due)
	}
	wg.Wait()
	rd.dur = time.Since(start)
	if rd.dur < dur {
		rd.dur = dur // the schedule covers the whole window even when its last arrival came early
	}
	return rd
}

// merge pools rounds for whole-window statistics (tail quantiles,
// counters); the end-to-end metrics use per-round medians instead.
func merge(rounds []round) round {
	var all round
	for _, rd := range rounds {
		all.dur += rd.dur
		all.reads = append(all.reads, rd.reads...)
		all.writes = append(all.writes, rd.writes...)
		all.attempted += rd.attempted
		all.failed += rd.failed
		all.mismatched += rd.mismatched
		all.withinSLO += rd.withinSLO
		all.lost += rd.lost
		all.inflightMax = max(all.inflightMax, rd.inflightMax)
		all.maxLate = max(all.maxLate, rd.maxLate)
	}
	sort.Float64s(all.reads)
	sort.Float64s(all.writes)
	return all
}

// measure runs the fixed protocol on a stood-up deployment: a discarded
// warm-up, a forced GC (whose surviving heap is live_heap_mb), then
// measuredRounds timed rounds with a GC between rounds, outside the
// timed region, so one round's garbage is not collected on another's
// clock.
func (d *deployment) measure(ctx context.Context, seed uint64, total time.Duration) (rounds []round, liveHeapMB float64) {
	per := total / measuredRounds
	ops, arrivals := newRNG(seed, streamRounds), newRNG(seed, streamArrivals)
	d.runRound(ctx, newRNG(seed, streamWarmup), arrivals, per)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	liveHeapMB = float64(ms.HeapAlloc) / 1e6
	for i := 0; i < measuredRounds; i++ {
		rounds = append(rounds, d.runRound(ctx, ops, arrivals, per))
		runtime.GC()
	}
	return rounds, liveHeapMB
}
