package loadgen

import (
	"fmt"
	"io"
	"time"

	"github.com/impir/impir/internal/metrics"
)

// ResultSchema versions the machine-readable run artifact. Bump it when
// a field changes meaning.
const ResultSchema = "impir-loadgen/1"

// Fingerprint echoes the configuration a run's numbers were taken
// under, so an artifact read later says what it measured — a p99 at
// 100 QPS against 4096 records says nothing about one at 500 QPS
// against a million. Nothing compares it; regressions are judged by
// `go run ./benchmark -compare`.
type Fingerprint struct {
	Workload string  `json:"workload"`
	QPS      float64 `json:"qps"`
	Clients  int     `json:"clients"`
	Workers  int     `json:"workers"`
	// Conns is the population's parallel connection-pool count (1 =
	// shared store); a server answers one connection's frames one at a
	// time, so this shapes the concurrency the servers actually see.
	Conns     int     `json:"conns"`
	Batch     int     `json:"batch"`
	DurationS float64 `json:"duration_s"`
	WarmupS   float64 `json:"warmup_s"`
	Records   uint64  `json:"records"`
	RecordLen int     `json:"record_size"`
	Topology  string  `json:"topology"`
	Seed      int64   `json:"seed"`
}

// Quantiles summarises a latency distribution in microseconds (the
// histogram's native unit; float for JSON friendliness).
type Quantiles struct {
	P50  float64 `json:"p50_us"`
	P90  float64 `json:"p90_us"`
	P99  float64 `json:"p99_us"`
	P999 float64 `json:"p999_us"`
	Max  float64 `json:"max_us"`
	Mean float64 `json:"mean_us"`
}

func quantilesOf(s HistSnapshot) Quantiles {
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	return Quantiles{
		P50:  us(s.Quantile(0.50)),
		P90:  us(s.Quantile(0.90)),
		P99:  us(s.Quantile(0.99)),
		P999: us(s.Quantile(0.999)),
		Max:  us(s.Max),
		Mean: us(s.Mean()),
	}
}

// Counts is the request accounting of a run or interval. Offered =
// OK + Busy + Timeouts + Errors + Lost + still-in-flight at snapshot
// time.
type Counts struct {
	// Offered is how many arrivals the open-loop schedule emitted.
	Offered uint64 `json:"offered"`
	// OK counts operations that completed successfully.
	OK uint64 `json:"ok"`
	// Busy counts operations rejected by server backpressure (MsgBusy).
	Busy uint64 `json:"busy"`
	// Timeouts counts operations that died on the per-op deadline.
	Timeouts uint64 `json:"timeouts"`
	// Errors counts every other failure.
	Errors uint64 `json:"errors"`
	// Lost counts arrivals the bounded worker pool could not even
	// launch — the pool and its backlog were saturated. They are the
	// offered load a stalled server silenced; counting them is what
	// keeps the offered rate honest.
	Lost uint64 `json:"lost"`
}

func (c Counts) sub(prev Counts) Counts {
	return Counts{
		Offered:  c.Offered - prev.Offered,
		OK:       c.OK - prev.OK,
		Busy:     c.Busy - prev.Busy,
		Timeouts: c.Timeouts - prev.Timeouts,
		Errors:   c.Errors - prev.Errors,
		Lost:     c.Lost - prev.Lost,
	}
}

// failures is everything offered that did not succeed.
func (c Counts) failures() uint64 { return c.Busy + c.Timeouts + c.Errors + c.Lost }

// FailureRate is failures over offered load, in [0,1].
func (c Counts) FailureRate() float64 {
	if c.Offered == 0 {
		return 0
	}
	return float64(c.failures()) / float64(c.Offered)
}

// Interval is one progress report: the counts and latency distribution
// of the slice of the run since the previous report, plus — when the
// runner can see the servers — the scheduler activity of the slice.
type Interval struct {
	// T is seconds since the run began; the measured window starts at
	// the fingerprint's warmup_s.
	T float64 `json:"t_s"`
	// Warmup marks intervals inside the discarded warmup window.
	Warmup bool   `json:"warmup,omitempty"`
	Counts Counts `json:"counts"`
	// AchievedQPS is OK completions per second in the interval.
	AchievedQPS float64   `json:"achieved_qps"`
	Latency     Quantiles `json:"latency"`
	// Servers holds each server's scheduler delta over the interval
	// (in-process runs only; absent when driving a remote deployment).
	Servers []metrics.SchedulerStats `json:"servers,omitempty"`
}

// Format renders the interval as one human progress line.
func (iv Interval) Format() string {
	c := iv.Counts
	line := fmt.Sprintf("t=%6.1fs qps=%8.1f ok=%-7d p50=%s p99=%s",
		iv.T, iv.AchievedQPS, c.OK,
		time.Duration(iv.Latency.P50*float64(time.Microsecond)).Round(10*time.Microsecond),
		time.Duration(iv.Latency.P99*float64(time.Microsecond)).Round(10*time.Microsecond))
	if n := c.failures(); n > 0 {
		line += fmt.Sprintf(" busy=%d timeout=%d err=%d lost=%d", c.Busy, c.Timeouts, c.Errors, c.Lost)
	}
	if iv.Warmup {
		line += " (warmup)"
	}
	return line
}

// ServerReport snapshots what the servers did across the measured
// window: per-server scheduler deltas plus their sum, so offered load
// (client side), admitted load, and engine work sit in one artifact.
type ServerReport struct {
	PerServer []metrics.SchedulerStats `json:"per_server"`
	// Aggregate sums the per-server counter deltas (gauges: max of
	// MaxDepth, last Epoch).
	Aggregate metrics.SchedulerStats `json:"aggregate"`
	// WidthLabels names the Aggregate.PassWidths buckets.
	WidthLabels []string `json:"width_labels"`
}

func newServerReport(cur, prev []metrics.SchedulerStats) *ServerReport {
	if len(cur) == 0 {
		return nil
	}
	r := &ServerReport{PerServer: make([]metrics.SchedulerStats, len(cur))}
	for i := range cur {
		var p metrics.SchedulerStats
		if i < len(prev) {
			p = prev[i]
		}
		d := metrics.Delta(cur[i], p)
		r.PerServer[i] = d
		r.Aggregate.Submitted += d.Submitted
		r.Aggregate.Rejected += d.Rejected
		r.Aggregate.Cancelled += d.Cancelled
		r.Aggregate.Dispatched += d.Dispatched
		r.Aggregate.Passes += d.Passes
		r.Aggregate.CoalescedPasses += d.CoalescedPasses
		r.Aggregate.CoalescedQueries += d.CoalescedQueries
		r.Aggregate.FusedPasses += d.FusedPasses
		r.Aggregate.TotalWait += d.TotalWait
		r.Aggregate.Updates += d.Updates
		for b := range d.PassWidths {
			r.Aggregate.PassWidths[b] += d.PassWidths[b]
		}
		if d.MaxDepth > r.Aggregate.MaxDepth {
			r.Aggregate.MaxDepth = d.MaxDepth
		}
		r.Aggregate.Epoch = d.Epoch
	}
	for b := 0; b < metrics.NumWidthBuckets; b++ {
		r.WidthLabels = append(r.WidthLabels, metrics.WidthBucketLabel(b))
	}
	return r
}

// Result is the whole run's machine-readable artifact.
type Result struct {
	Schema      string      `json:"schema"`
	Fingerprint Fingerprint `json:"fingerprint"`
	// ElapsedS is the measured window's length (warmup excluded).
	ElapsedS    float64   `json:"elapsed_s"`
	OfferedQPS  float64   `json:"offered_qps"`
	AchievedQPS float64   `json:"achieved_qps"`
	Counts      Counts    `json:"counts"`
	Latency     Quantiles `json:"latency"`
	// WarmupOps counts operations issued and discarded during warmup.
	WarmupOps uint64     `json:"warmup_ops,omitempty"`
	Intervals []Interval `json:"intervals,omitempty"`
	// Servers is the server-side scheduler delta over the measured
	// window (in-process runs only).
	Servers *ServerReport `json:"servers,omitempty"`
	// Store is the client-side store counter delta over the measured
	// window; KV additionally for keyword workloads (cumulative — the
	// KV layer has no delta helper, and the runner owns the client, so
	// cumulative equals the run).
	Store metrics.StoreStats `json:"store"`
	KV    *metrics.KVStats   `json:"kv,omitempty"`
	// BatchCode summarises the batch-code layer's activity over the
	// measured window — present only when the driven store actually
	// served coded batches (coded deployments).
	BatchCode *BatchCodeReport `json:"batch_code,omitempty"`
	// Ramp carries the saturation-search steps when -ramp ran.
	Ramp *RampResult `json:"ramp,omitempty"`
	// Traces condenses the client-side sampled span trees of the run
	// (runs with -trace-sample only).
	Traces []TraceSummary `json:"traces,omitempty"`
}

// BatchCodeReport is the run's multi-message accounting: how many
// batches rode the batch-code planner, the constant-shape sub-queries
// they issued (and how many of those were dummies), and uncoded
// fallbacks. All client-side counters —
// nothing here is visible on the wire.
type BatchCodeReport struct {
	CodedBatches  uint64 `json:"coded_batches"`
	BucketQueries uint64 `json:"bucket_queries"`
	DummyQueries  uint64 `json:"dummy_queries"`
	Fallbacks     uint64 `json:"fallbacks"`
}

// newBatchCodeReport folds the store delta's coded counters into the
// artifact section; nil when the run never touched the coded path.
func newBatchCodeReport(s metrics.StoreStats) *BatchCodeReport {
	if s.CodedBatches == 0 && s.CodeFallbacks == 0 {
		return nil
	}
	return &BatchCodeReport{
		CodedBatches:  s.CodedBatches,
		BucketQueries: s.CodedQueries,
		DummyQueries:  s.CodedDummies,
		Fallbacks:     s.CodeFallbacks,
	}
}

// TraceSummary is one sampled client trace boiled down to the numbers a
// run artifact needs: which operation, how long, how wide the tree got.
// The full span trees stay in the client Observers' rings — the artifact records
// enough to spot outliers, not to replay them.
type TraceSummary struct {
	TraceID string `json:"trace_id"`
	Op      string `json:"op"`
	DurUS   int64  `json:"dur_us"`
	// Spans counts every span in the tree (root, per-shard, per-party,
	// per-attempt).
	Spans int `json:"spans"`
	// Error carries the root span's error attribute, if the operation
	// failed.
	Error string `json:"error,omitempty"`
}

// PrintHuman renders the run summary as text.
func (r *Result) PrintHuman(w io.Writer) {
	fmt.Fprintf(w, "== loadgen: %s workload, %.0f QPS offered, %d clients, batch %d ==\n",
		r.Fingerprint.Workload, r.Fingerprint.QPS, r.Fingerprint.Clients, r.Fingerprint.Batch)
	fmt.Fprintf(w, "  topology   : %s (%d records × %dB)\n",
		r.Fingerprint.Topology, r.Fingerprint.Records, r.Fingerprint.RecordLen)
	fmt.Fprintf(w, "  window     : %.1fs measured (+%.1fs warmup, %d ops discarded)\n",
		r.ElapsedS, r.Fingerprint.WarmupS, r.WarmupOps)
	c := r.Counts
	fmt.Fprintf(w, "  offered    : %d (%.1f QPS)\n", c.Offered, r.OfferedQPS)
	fmt.Fprintf(w, "  completed  : %d ok (%.1f QPS), %d busy, %d timeout, %d error, %d lost\n",
		c.OK, r.AchievedQPS, c.Busy, c.Timeouts, c.Errors, c.Lost)
	us := func(v float64) time.Duration {
		return time.Duration(v * float64(time.Microsecond)).Round(time.Microsecond)
	}
	fmt.Fprintf(w, "  latency    : p50=%v p90=%v p99=%v p999=%v max=%v mean=%v\n",
		us(r.Latency.P50), us(r.Latency.P90), us(r.Latency.P99),
		us(r.Latency.P999), us(r.Latency.Max), us(r.Latency.Mean))
	fmt.Fprintf(w, "  store      : %v\n", r.Store.String())
	if bc := r.BatchCode; bc != nil {
		fmt.Fprintf(w, "  batch code : %d coded batches, %d bucket queries (%d dummies), %d fallbacks\n",
			bc.CodedBatches, bc.BucketQueries, bc.DummyQueries, bc.Fallbacks)
	}
	if r.KV != nil {
		fmt.Fprintf(w, "  kv         : %v\n", r.KV.String())
	}
	if r.Servers != nil {
		agg := r.Servers.Aggregate
		fmt.Fprintf(w, "  servers    : %d × scheduler — %v\n", len(r.Servers.PerServer), agg.String())
		fmt.Fprintf(w, "  pass widths:")
		for b, n := range agg.PassWidths {
			if n > 0 {
				fmt.Fprintf(w, " %s:%d", metrics.WidthBucketLabel(b), n)
			}
		}
		fmt.Fprintln(w)
	}
	if len(r.Traces) > 0 {
		fmt.Fprintf(w, "  traces     : %d sampled span tree(s) in artifact\n", len(r.Traces))
	}
	if r.Ramp != nil {
		r.Ramp.PrintHuman(w)
	}
}
