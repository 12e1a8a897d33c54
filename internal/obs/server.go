package obs

import (
	"time"

	"github.com/impir/impir/internal/metrics"
)

// Readiness condition names used across the server stack. The admin
// /readyz endpoint reports the failing names, so they are part of the
// operator-facing surface.
const (
	// CondDBLoaded holds once a database is loaded into the engine.
	CondDBLoaded = "db-loaded"
	// CondServing holds while the query listener accepts and the server
	// is not draining.
	CondServing = "serving"
	// CondUpdateQuiesce fails only while an update holds, or waits for,
	// the scheduler's pass lock exclusively (the in-flight pass waited
	// out, queries briefly held).
	CondUpdateQuiesce = "update-quiesce"
)

// Request stages the per-frame latency histogram splits on.
const (
	// StageQueue is admission-queue wait before an engine pass.
	StageQueue = "queue"
	// StageEngine is the engine pass duration.
	StageEngine = "engine"
	// StageTotal is end-to-end dispatch as the transport sees it.
	StageTotal = "total"
)

// ServerMetrics is the server-side metric bundle: every family one
// impir server exports, created against one Registry. The transport and
// scheduler hold a *ServerMetrics and record into it; nil receivers are
// no-ops so un-instrumented servers (tests, benches) pay nothing.
//
// Every counter is a registry cell incremented where its event happens:
// the transport's per-frame counters and latency histograms, and the
// scheduler's queue counters (the Scheduler field). The cells are the
// store of record — the scheduler's Stats snapshot reads the same cells
// a scrape renders. Only point-in-time gauges (queue depth, database
// epoch and shape, readiness) are set at scrape time.
type ServerMetrics struct {
	Registry *Registry
	// Scheduler holds the scheduler's counter cells, resolved once here
	// so the dispatch path increments them without a lookup.
	Scheduler SchedulerCounters

	requests *CounterVec // frame
	busy     *CounterVec // frame
	failures *CounterVec // frame
	lost     *CounterVec // (none)
	latency  *HistogramVec
	phases   *HistogramVec // phase
	ready    *GaugeVec

	depth         *GaugeVec
	dbEpoch       *GaugeVec
	dbRecords     *GaugeVec
	dbRecordBytes *GaugeVec
}

// SchedulerCounters are the cells of the impir_scheduler_* families —
// the only storage of the scheduler's cumulative counters and its queue
// high-water mark (see metrics.SchedulerStats for each field's meaning).
type SchedulerCounters struct {
	Submitted, Rejected, Cancelled, Dispatched, Passes *Counter
	CoalescedPasses, CoalescedQueries, FusedPasses     *Counter
	// Updates counts applied bulk updates, which is also the database
	// epoch.
	Updates    *Counter
	PassWidths [metrics.NumWidthBuckets]*Counter
	MaxDepth   *Gauge
}

// NewServerMetrics registers the full server family set on reg.
func NewServerMetrics(reg *Registry) *ServerMetrics {
	m := &ServerMetrics{Registry: reg}

	m.requests = reg.NewCounter("impir_requests_total",
		"Wire frames dispatched, by frame type.", "frame")
	m.busy = reg.NewCounter("impir_busy_rejects_total",
		"Requests rejected with a busy frame (admission queue full), by frame type.", "frame")
	m.failures = reg.NewCounter("impir_request_failures_total",
		"Requests that failed for reasons other than busy, by frame type.", "frame")
	m.lost = reg.NewCounter("impir_lost_arrivals_total",
		"Frames that arrived after drain began and were never dispatched.")
	m.latency = reg.NewHistogram("impir_request_latency_seconds",
		"Request latency by frame type and stage (queue wait, engine pass, total).",
		nil, "frame", "stage")
	m.phases = reg.NewHistogram("impir_engine_phase_seconds",
		"Engine pass wall time attributed to each processing phase, one sample per pass.", nil, "phase")

	c := &m.Scheduler
	for _, f := range []struct {
		cell       **Counter
		name, help string
	}{
		{&c.Submitted, "submitted", "Requests admitted to the scheduler queue."},
		{&c.Rejected, "rejected", "Requests refused with busy because the admission queue was full."},
		{&c.Cancelled, "cancelled", "Requests dequeued without an engine pass because their context died."},
		{&c.Dispatched, "dispatched", "Requests that reached an engine pass."},
		{&c.Passes, "passes", "Engine passes executed."},
		{&c.CoalescedPasses, "coalesced_passes", "Passes that merged 2+ single queries from different connections."},
		{&c.CoalescedQueries, "coalesced_queries", "Single queries served through a coalesced pass."},
		{&c.FusedPasses, "fused_passes", "Passes executed as fused one-pass database scans."},
		{&c.Updates, "updates", "Database bulk updates applied."},
	} {
		*f.cell = reg.NewCounter("impir_scheduler_"+f.name+"_total", f.help).With()
	}
	passWidth := reg.NewCounter("impir_scheduler_pass_width_total",
		"Single-query engine passes by coalesce width bucket.", "width")
	for i := range c.PassWidths {
		c.PassWidths[i] = passWidth.With(metrics.WidthBucketLabel(i))
	}
	m.depth = reg.NewGauge("impir_scheduler_queue_depth",
		"Admission queue depth at scrape time.")
	c.MaxDepth = reg.NewGauge("impir_scheduler_queue_depth_max",
		"Deepest the admission queue has been.").With()
	m.dbEpoch = reg.NewGauge("impir_db_epoch",
		"Database version the scheduler is serving (bumped once per applied update).")
	m.dbRecords = reg.NewGauge("impir_db_records",
		"Records in the loaded database.")
	m.dbRecordBytes = reg.NewGauge("impir_db_record_bytes",
		"Record size of the loaded database in bytes.")
	m.ready = reg.NewGauge("impir_ready",
		"1 while every readiness condition holds, else 0.")
	return m
}

// IncRequest counts one dispatched frame.
func (m *ServerMetrics) IncRequest(frame string) {
	if m == nil {
		return
	}
	m.requests.With(frame).Inc()
}

// IncBusy counts one busy rejection.
func (m *ServerMetrics) IncBusy(frame string) {
	if m == nil {
		return
	}
	m.busy.With(frame).Inc()
}

// IncFailure counts one non-busy failure.
func (m *ServerMetrics) IncFailure(frame string) {
	if m == nil {
		return
	}
	m.failures.With(frame).Inc()
}

// IncLostArrival counts one frame that arrived after drain began.
func (m *ServerMetrics) IncLostArrival() {
	if m == nil {
		return
	}
	m.lost.With().Inc()
}

// ObserveStage records one stage latency for a frame type.
func (m *ServerMetrics) ObserveStage(frame, stage string, d time.Duration) {
	if m == nil {
		return
	}
	m.latency.With(frame, stage).Observe(d)
}

// ObservePass attributes one engine pass's wall time to phases: one
// sample per phase per pass, of the pass's own phase time (the engine
// reports a per-query average, so it is scaled back up by the width).
func (m *ServerMetrics) ObservePass(st metrics.BatchStats) {
	if m == nil {
		return
	}
	width := time.Duration(max(st.Queries, 1))
	for i := 0; i < metrics.NumPhases; i++ {
		if d := st.PerQuery.Wall[i] * width; d > 0 {
			m.phases.With(metrics.Phase(i).String()).Observe(d)
		}
	}
}

// SetQueue publishes the admission queue's depth and the database epoch
// the scheduler serves. Call from a Registry.OnScrape hook.
func (m *ServerMetrics) SetQueue(depth int, epoch uint64) {
	if m == nil {
		return
	}
	m.depth.With().Set(int64(depth))
	m.dbEpoch.With().Set(int64(epoch))
}

// SetDB publishes the loaded database's shape.
func (m *ServerMetrics) SetDB(records int, recordBytes int) {
	if m == nil {
		return
	}
	m.dbRecords.With().Set(int64(records))
	m.dbRecordBytes.With().Set(int64(recordBytes))
}

// MirrorReadiness publishes the readiness tracker as the impir_ready
// gauge. Call from an OnScrape hook.
func (m *ServerMetrics) MirrorReadiness(r *Readiness) {
	if m == nil {
		return
	}
	ok, _ := r.Ready()
	var v int64
	if ok {
		v = 1
	}
	m.ready.With().Set(v)
}

// RequestSample names the scraped per-frame request counter sample.
func RequestSample(frame string) string {
	return `impir_requests_total{frame="` + frame + `"}`
}

// StageCountSample names the _count sample of the per-frame, per-stage
// latency histogram.
func StageCountSample(frame, stage string) string {
	return `impir_request_latency_seconds_count{frame="` + frame + `",stage="` + stage + `"}`
}
