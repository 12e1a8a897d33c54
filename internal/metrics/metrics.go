// Package metrics defines the per-phase timing breakdowns reported by the
// PIR engines, mirroring the instrumentation behind Figure 10 and Table 1
// of the paper: every query's server-side cost is attributed to DPF
// evaluation, CPU→PIM copy, dpXOR, PIM→CPU copy, and aggregation.
//
// Each phase carries two durations: Wall (measured on the machine running
// this reproduction) and Modeled (what the operation costs on the paper's
// hardware per the calibrated models in packages pim and hostmodel). The
// benchmark harness reports both; figure reproduction uses Modeled.
package metrics

import (
	"fmt"
	"math/bits"
	"strings"
	"time"
)

// Phase identifies one server-side query-processing phase (Alg. 1 ➋–➏).
type Phase int

const (
	// PhaseGen is client-side key generation (only Fig. 3a reports it).
	PhaseGen Phase = iota
	// PhaseEval is host-side full-domain DPF evaluation (Alg. 1 ➋).
	PhaseEval
	// PhaseCopyToPIM is the share-vector scatter to DPU MRAM (➌).
	PhaseCopyToPIM
	// PhaseDpXOR is the selective-XOR scan (➍) — on DPUs for IM-PIR, on
	// the CPU for the baseline, on the GPU for GPU-PIR.
	PhaseDpXOR
	// PhaseCopyToHost is the subresult gather from DPUs (➎).
	PhaseCopyToHost
	// PhaseAggregate is the host-side XOR fold of subresults (➏).
	PhaseAggregate

	numPhases
)

// NumPhases is the number of distinct phases.
const NumPhases = int(numPhases)

// String returns the phase name as used in the paper's figures.
func (p Phase) String() string {
	switch p {
	case PhaseGen:
		return "Gen"
	case PhaseEval:
		return "Eval"
	case PhaseCopyToPIM:
		return "copy(cpu→pim)"
	case PhaseDpXOR:
		return "dpXOR"
	case PhaseCopyToHost:
		return "copy(pim→cpu)"
	case PhaseAggregate:
		return "aggregation"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// Phases lists all phases in pipeline order.
func Phases() []Phase {
	out := make([]Phase, NumPhases)
	for i := range out {
		out[i] = Phase(i)
	}
	return out
}

// Breakdown is a per-phase accounting of one query (or an accumulation
// over many queries) in both wall-clock and modeled time.
type Breakdown struct {
	Wall    [NumPhases]time.Duration
	Modeled [NumPhases]time.Duration
}

// AddPhase accumulates one phase observation.
func (b *Breakdown) AddPhase(p Phase, wall, modeled time.Duration) {
	b.Wall[p] += wall
	b.Modeled[p] += modeled
}

// Add accumulates another breakdown into b.
func (b *Breakdown) Add(o Breakdown) {
	for i := 0; i < NumPhases; i++ {
		b.Wall[i] += o.Wall[i]
		b.Modeled[i] += o.Modeled[i]
	}
}

// TotalWall returns the summed measured duration across phases.
func (b *Breakdown) TotalWall() time.Duration {
	var t time.Duration
	for _, d := range b.Wall {
		t += d
	}
	return t
}

// TotalModeled returns the summed modeled duration across phases.
func (b *Breakdown) TotalModeled() time.Duration {
	var t time.Duration
	for _, d := range b.Modeled {
		t += d
	}
	return t
}

// ModeledShare returns phase p's fraction of the modeled total, the
// quantity Table 1 reports. Returns 0 for an empty breakdown.
func (b *Breakdown) ModeledShare(p Phase) float64 {
	total := b.TotalModeled()
	if total == 0 {
		return 0
	}
	return float64(b.Modeled[p]) / float64(total)
}

// Scale returns a copy of b with all durations divided by n — used to
// convert batch accumulations into per-query averages.
func (b *Breakdown) Scale(n int) Breakdown {
	if n <= 0 {
		return *b
	}
	var out Breakdown
	for i := 0; i < NumPhases; i++ {
		out.Wall[i] = b.Wall[i] / time.Duration(n)
		out.Modeled[i] = b.Modeled[i] / time.Duration(n)
	}
	return out
}

// String renders the modeled breakdown compactly for logs.
func (b *Breakdown) String() string {
	var sb strings.Builder
	for i := 0; i < NumPhases; i++ {
		if b.Modeled[i] == 0 && b.Wall[i] == 0 {
			continue
		}
		if sb.Len() > 0 {
			sb.WriteString(" ")
		}
		fmt.Fprintf(&sb, "%s=%v", Phase(i), b.Modeled[i].Round(time.Microsecond))
	}
	return sb.String()
}

// BatchStats summarises a batch of queries processed by an engine.
type BatchStats struct {
	// Queries is the batch size.
	Queries int
	// PerQuery is the average per-query breakdown.
	PerQuery Breakdown
	// WallLatency is the measured end-to-end time for the whole batch.
	WallLatency time.Duration
	// ModeledLatency is the modeled end-to-end batch time on the paper's
	// hardware, including pipeline overlap between eval workers and DPU
	// clusters.
	ModeledLatency time.Duration
	// Fused reports that the batch was served by fused one-pass scans
	// (one database stream accumulating all queries) rather than one
	// scan per query.
	Fused bool
}

// ModeledQPS returns the modeled query throughput of the batch.
func (s BatchStats) ModeledQPS() float64 {
	if s.ModeledLatency <= 0 {
		return 0
	}
	return float64(s.Queries) / s.ModeledLatency.Seconds()
}

// NumWidthBuckets is the number of coalesce-width histogram buckets in
// SchedulerStats.PassWidths: powers of two up to 64 plus an overflow
// bucket (1, 2, 3–4, 5–8, 9–16, 17–32, 33–64, 65+).
const NumWidthBuckets = 8

// WidthBucket maps a single-query pass width (requests served by one
// engine pass) to its PassWidths bucket index.
func WidthBucket(width int) int {
	if width <= 1 {
		return 0
	}
	b := bits.Len(uint(width - 1))
	if b >= NumWidthBuckets {
		b = NumWidthBuckets - 1
	}
	return b
}

// WidthBucketLabel names a PassWidths bucket for reports.
func WidthBucketLabel(i int) string {
	switch {
	case i <= 0:
		return "1"
	case i == 1:
		return "2"
	case i < NumWidthBuckets-1:
		return fmt.Sprintf("%d-%d", 1<<(i-1)+1, 1<<i)
	default:
		return fmt.Sprintf("%d+", 1<<(NumWidthBuckets-2)+1)
	}
}

// SchedulerStats is a snapshot of a server-side request scheduler: the
// admission queue, the cross-client coalescing behaviour, and the update
// epochs. All counters are cumulative since the scheduler started.
type SchedulerStats struct {
	// Submitted counts requests admitted to the queue.
	Submitted uint64
	// Rejected counts requests refused because the queue was full — the
	// backpressure signal that becomes a MsgBusy frame on the wire.
	Rejected uint64
	// Cancelled counts requests dequeued without an engine pass because
	// their context died while they waited.
	Cancelled uint64
	// Dispatched counts requests that reached an engine pass, including
	// single queries whose key the pass's up-front check rejected.
	Dispatched uint64
	// Passes counts engine passes executed (a coalesced pass serves many
	// requests in one).
	Passes uint64
	// CoalescedPasses counts passes that merged ≥ 2 single queries from
	// different submitters into one batch pipeline pass.
	CoalescedPasses uint64
	// CoalescedQueries counts single queries served through a coalesced
	// pass rather than a solo engine pass.
	CoalescedQueries uint64
	// FusedPasses counts engine passes executed as fused one-pass scans:
	// the whole batch shared one streaming pass over the database instead
	// of paying one scan per query.
	FusedPasses uint64
	// PassWidths is a histogram of single-query pass widths: how many
	// requests each engine pass served, bucketed by WidthBucket. Solo
	// passes land in bucket 0; a healthy coalescing server under
	// concurrent load shifts mass rightward.
	PassWidths [NumWidthBuckets]uint64
	// MaxDepth is the deepest the admission queue has been.
	MaxDepth int
	// Depth is the queue depth at snapshot time.
	Depth int
	// TotalWait accumulates time requests spent queued before dispatch.
	TotalWait time.Duration
	// Updates counts applied database updates; Epoch is the database
	// version the scheduler is serving (bumped once per update).
	Updates uint64
	Epoch   uint64
}

// ShardStats is one shard cohort's cumulative client-side counters, as
// maintained by the client. Real and dummy sub-queries are
// counted together — they are indistinguishable by construction, which
// is the whole privacy argument, so a per-kind split cannot exist here
// without breaking it on the wire anyway.
type ShardStats struct {
	// Queries counts single sub-queries fanned out to the cohort.
	Queries uint64
	// Batches counts batched round trips to the cohort; BatchQueries
	// counts the sub-queries they carried.
	Batches      uint64
	BatchQueries uint64
	// UpdateRows counts dirty records routed to this cohort by update
	// routing (updates go only to the owning shard; they are public).
	UpdateRows uint64
	// Errors counts failed sub-requests against the cohort.
	Errors uint64
	// TotalTime accumulates the wall time of the cohort's sub-requests.
	TotalTime time.Duration
}

// AvgTime returns the mean wall time per round trip to the cohort (a
// batch is one round trip however many sub-queries it carries).
func (s ShardStats) AvgTime() time.Duration {
	n := s.Queries + s.Batches
	if n == 0 {
		return 0
	}
	return s.TotalTime / time.Duration(n)
}

// StoreStats aggregates a store's client-side behaviour — flat replica
// pairs and sharded clusters alike: per-cohort counters plus logical
// operation, retry and hedging totals. Hedging counters are client-side
// only: every hedged attempt carries the SAME share its party would have
// received anyway, so nothing here corresponds to extra information on
// any server's wire.
type StoreStats struct {
	// Retrievals and BatchRetrievals count logical operations against
	// the store (each fans out one sub-query per cohort).
	Retrievals      uint64
	BatchRetrievals uint64
	// Updates counts update operations routed through the store.
	Updates uint64
	// Errors counts logical operations that failed after exhausting
	// their retry budget.
	Errors uint64
	// Busy counts logical operations that failed because a server
	// rejected the request with a MsgBusy frame (admission queue full) —
	// the client-side view of server-side backpressure. Every Busy is
	// also an Error.
	Busy uint64
	// Retries counts extra whole-operation attempts spent from per-call
	// retry budgets (transparent redial of broken connections included).
	Retries uint64
	// Hedges counts hedge attempts launched beyond a party's primary
	// replica; HedgeWins counts party sub-requests won by a non-primary
	// replica — the tail-latency rescues.
	Hedges    uint64
	HedgeWins uint64
	// Shards holds the per-cohort counters, indexed by shard (a flat
	// deployment is one cohort, so one entry).
	Shards []ShardStats
	// Coded-batch counters, maintained by the batch-code layer on coded
	// deployments (zero elsewhere). Like the hedging counters these are
	// client-side only: which of a coded batch's constant-shape slots
	// were real or dummy is exactly what the wire hides.
	//
	// CodedBatches counts RetrieveBatch calls served through the batch
	// code planner; CodedQueries the constant-shape sub-queries they
	// issued (buckets + overflow slots per batch) and CodedDummies how
	// many of those were dummies. CodeFallbacks counts batches that fell
	// back to the uncoded path (over the declared cap, or a matching
	// overflow).
	CodedBatches  uint64
	CodedQueries  uint64
	CodedDummies  uint64
	CodeFallbacks uint64
}

// TotalSubQueries sums the sub-queries issued across every shard.
func (c StoreStats) TotalSubQueries() uint64 {
	var n uint64
	for _, s := range c.Shards {
		n += s.Queries + s.BatchQueries
	}
	return n
}

// String renders the store counters compactly for logs and reports.
func (c StoreStats) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "retrievals=%d batches=%d updates=%d", c.Retrievals, c.BatchRetrievals, c.Updates)
	if c.Errors > 0 || c.Retries > 0 {
		fmt.Fprintf(&sb, " errors=%d retries=%d", c.Errors, c.Retries)
	}
	if c.Busy > 0 {
		fmt.Fprintf(&sb, " busy=%d", c.Busy)
	}
	if c.Hedges > 0 || c.HedgeWins > 0 {
		fmt.Fprintf(&sb, " hedges=%d hedge-wins=%d", c.Hedges, c.HedgeWins)
	}
	if c.CodedBatches > 0 || c.CodeFallbacks > 0 {
		fmt.Fprintf(&sb, " coded=%d coded-queries=%d dummies=%d fallbacks=%d",
			c.CodedBatches, c.CodedQueries, c.CodedDummies, c.CodeFallbacks)
	}
	for i, s := range c.Shards {
		fmt.Fprintf(&sb, " shard%d[q=%d bq=%d rows=%d err=%d avg=%v]",
			i, s.Queries, s.BatchQueries, s.UpdateRows, s.Errors, s.AvgTime().Round(time.Microsecond))
	}
	return sb.String()
}

// KVStats is a snapshot of a keyword client's cumulative counters.
// Hits and Misses are client-side outcomes only — on the wire a hit
// and a miss are indistinguishable by construction (identical probe
// batches), so these counters exist nowhere a server could read.
type KVStats struct {
	// Gets counts single-key lookups; BatchGets counts batched lookup
	// round trips and BatchKeys the keys they carried.
	Gets      uint64
	BatchGets uint64
	BatchKeys uint64
	// Hits and Misses split lookups by outcome (client-side only).
	Hits   uint64
	Misses uint64
	// Puts and Deletes count mutations pushed through the update path.
	Puts    uint64
	Deletes uint64
	// ProbedBuckets counts bucket records privately retrieved: k
	// candidates per key + the stash, per probe batch actually sent.
	ProbedBuckets uint64
	// Errors counts failed operations.
	Errors uint64
}

// String renders the counters compactly for logs and reports.
func (s KVStats) String() string {
	return fmt.Sprintf("gets=%d batch-gets=%d(%d keys) hits=%d misses=%d puts=%d deletes=%d probes=%d errors=%d",
		s.Gets, s.BatchGets, s.BatchKeys, s.Hits, s.Misses, s.Puts, s.Deletes, s.ProbedBuckets, s.Errors)
}

// AvgWait returns the mean time a dispatched request spent queued.
func (s SchedulerStats) AvgWait() time.Duration {
	if s.Dispatched == 0 {
		return 0
	}
	return s.TotalWait / time.Duration(s.Dispatched)
}

// AvgCoalesce returns the mean number of requests served per engine pass
// — 1.0 means no cross-client amortisation happened.
func (s SchedulerStats) AvgCoalesce() float64 {
	if s.Passes == 0 {
		return 0
	}
	return float64(s.Dispatched) / float64(s.Passes)
}

// Delta returns the scheduler activity between two snapshots of the
// SAME scheduler: cumulative counters subtract (cur - prev), while the
// gauges — Depth, MaxDepth, Epoch — keep their current value, since a
// high-water mark or version has no meaningful difference. Interval
// reporters (loadgen, benchmark/) share this one definition so their
// per-interval numbers agree.
func Delta(cur, prev SchedulerStats) SchedulerStats {
	d := SchedulerStats{
		Submitted:        cur.Submitted - prev.Submitted,
		Rejected:         cur.Rejected - prev.Rejected,
		Cancelled:        cur.Cancelled - prev.Cancelled,
		Dispatched:       cur.Dispatched - prev.Dispatched,
		Passes:           cur.Passes - prev.Passes,
		CoalescedPasses:  cur.CoalescedPasses - prev.CoalescedPasses,
		CoalescedQueries: cur.CoalescedQueries - prev.CoalescedQueries,
		FusedPasses:      cur.FusedPasses - prev.FusedPasses,
		MaxDepth:         cur.MaxDepth,
		Depth:            cur.Depth,
		TotalWait:        cur.TotalWait - prev.TotalWait,
		Updates:          cur.Updates - prev.Updates,
		Epoch:            cur.Epoch,
	}
	for i := range d.PassWidths {
		d.PassWidths[i] = cur.PassWidths[i] - prev.PassWidths[i]
	}
	return d
}

// DeltaStore returns the client activity between two snapshots of the
// SAME store: every counter subtracts (cur - prev), including the
// per-shard counters (missing prev shards subtract zero).
func DeltaStore(cur, prev StoreStats) StoreStats {
	d := StoreStats{
		Retrievals:      cur.Retrievals - prev.Retrievals,
		BatchRetrievals: cur.BatchRetrievals - prev.BatchRetrievals,
		Updates:         cur.Updates - prev.Updates,
		Errors:          cur.Errors - prev.Errors,
		Busy:            cur.Busy - prev.Busy,
		Retries:         cur.Retries - prev.Retries,
		Hedges:          cur.Hedges - prev.Hedges,
		HedgeWins:       cur.HedgeWins - prev.HedgeWins,
		CodedBatches:    cur.CodedBatches - prev.CodedBatches,
		CodedQueries:    cur.CodedQueries - prev.CodedQueries,
		CodedDummies:    cur.CodedDummies - prev.CodedDummies,
		CodeFallbacks:   cur.CodeFallbacks - prev.CodeFallbacks,
		Shards:          make([]ShardStats, len(cur.Shards)),
	}
	for i, s := range cur.Shards {
		var p ShardStats
		if i < len(prev.Shards) {
			p = prev.Shards[i]
		}
		d.Shards[i] = ShardStats{
			Queries:      s.Queries - p.Queries,
			Batches:      s.Batches - p.Batches,
			BatchQueries: s.BatchQueries - p.BatchQueries,
			UpdateRows:   s.UpdateRows - p.UpdateRows,
			Errors:       s.Errors - p.Errors,
			TotalTime:    s.TotalTime - p.TotalTime,
		}
	}
	return d
}

// RoundDuration rounds d for human-facing reports at a scale adapted to
// its magnitude — about three significant digits — so a 1h23m drain and
// a 740ns modeled queue wait both render usefully. Fixed-scale rounding
// (the old Round(time.Microsecond)) truncated sub-microsecond engine
// model waits to "0s" in bench reports.
func RoundDuration(d time.Duration) time.Duration {
	abs := d
	if abs < 0 {
		abs = -abs
	}
	switch {
	case abs >= time.Second:
		return d.Round(10 * time.Millisecond)
	case abs >= time.Millisecond:
		return d.Round(10 * time.Microsecond)
	case abs >= time.Microsecond:
		return d.Round(10 * time.Nanosecond)
	default:
		return d
	}
}

// String renders the queue counters compactly for logs and reports.
func (s SchedulerStats) String() string {
	return fmt.Sprintf(
		"submitted=%d rejected=%d cancelled=%d passes=%d coalesce=%.2f fused=%d avg-wait=%v max-depth=%d epoch=%d",
		s.Submitted, s.Rejected, s.Cancelled, s.Passes, s.AvgCoalesce(),
		s.FusedPasses, RoundDuration(s.AvgWait()), s.MaxDepth, s.Epoch)
}
