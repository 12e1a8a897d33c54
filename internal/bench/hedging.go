package bench

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// HedgingTail models the tail-latency win of hedged replica fan-out:
// each party of a deployment runs ≥ 2 interchangeable replicas, every
// replica serves in a base time but occasionally stalls (GC pause, CPU
// contention, a queued update quiesce), and the client hedges a lagging
// primary's share to the party's next replica after a delay near the
// p50. An unhedged client inherits the replica's stall distribution
// verbatim; a hedged client replaces the stall tail with (delay +
// second replica's sample), collapsing p99 toward p50 — the classic
// "tail at scale" construction, priced here for IM-PIR's query shape.
//
// The model is a seeded Monte Carlo (deterministic across runs):
// replica latency = base ± jitter, plus a stall of stallDur with the
// row's probability, both replicas sampled independently. The hedged
// sample is min(primary, delay + secondary) — exactly what the
// client's fanout.Hedge implements, losers cancelled.
func HedgingTail() *Report {
	r := &Report{
		ID:      "Hedging tail latency",
		Title:   "Hedged replica fan-out: p50/p99 vs per-replica stall probability (2 replicas/party)",
		Columns: []string{"Stall prob", "Unhedged p50 (ms)", "Unhedged p99 (ms)", "Hedged p50 (ms)", "Hedged p99 (ms)", "p99 win"},
	}
	const (
		samples  = 200_000
		base     = 2 * time.Millisecond   // healthy replica round trip
		jitter   = 500 * time.Microsecond // uniform ± around base
		stallDur = 200 * time.Millisecond // a stalled replica's extra latency
		delay    = 4 * time.Millisecond   // hedge floor ≈ 2× p50, the client default policy
	)
	rng := rand.New(rand.NewSource(2026))
	sample := func(p float64) time.Duration {
		d := base + time.Duration((rng.Float64()*2-1)*float64(jitter))
		if rng.Float64() < p {
			d += stallDur
		}
		return d
	}
	percentile := func(xs []time.Duration, q float64) time.Duration {
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
		i := int(q * float64(len(xs)))
		if i >= len(xs) {
			i = len(xs) - 1
		}
		return xs[i]
	}

	var wins []float64
	for _, p := range []float64{0.001, 0.01, 0.05, 0.10} {
		unhedged := make([]time.Duration, samples)
		hedged := make([]time.Duration, samples)
		for i := 0; i < samples; i++ {
			primary, secondary := sample(p), sample(p)
			unhedged[i] = primary
			h := primary
			if alt := delay + secondary; alt < h {
				h = alt
			}
			hedged[i] = h
		}
		u50, u99 := percentile(unhedged, 0.50), percentile(unhedged, 0.99)
		h50, h99 := percentile(hedged, 0.50), percentile(hedged, 0.99)
		win := float64(u99) / float64(h99)
		wins = append(wins, win)
		r.Rows = append(r.Rows, []string{
			fmt.Sprintf("%.1f%%", p*100),
			fmtMS(u50), fmtMS(u99), fmtMS(h50), fmtMS(h99),
			fmt.Sprintf("%.1fx", win),
		})
	}

	// With a 1% stall probability the unhedged p99 IS the stall; the
	// hedged p99 must collapse to ≈ delay + base, an order of magnitude.
	r.AddCheck("hedging collapses the 1% stall out of p99", wins[1] > 10,
		"p99 win at 1%% stalls: %.1fx", wins[1])
	r.AddCheck("hedging keeps winning as stalls get common", wins[2] > 2 && wins[3] > 2,
		"p99 win at 5%%/10%% stalls: %.1fx/%.1fx", wins[2], wins[3])
	r.AddNote("model: %v base ± %v jitter per replica, %v stalls, hedge after %v; %d samples, seeded",
		base, jitter, stallDur, delay, samples)
	return r
}
