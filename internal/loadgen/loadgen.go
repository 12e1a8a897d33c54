// Package loadgen is the production load harness: an open-loop
// constant-QPS generator that drives a simulated client population into
// a live IM-PIR deployment over TCP and reports what both sides of the
// wire saw — offered load, admitted load, and engine work — in one
// machine-readable artifact.
//
// The generator is open-loop: arrivals follow a fixed schedule
// (request i is due at start + i/QPS) no matter how the system under
// test is doing, and each latency is measured from the request's DUE
// time, not from when a worker got around to sending it. A stalled
// server therefore shows up as growing latency and Lost arrivals — it
// cannot silence the offered load the way a closed-loop benchmark's
// coordinated omission does. The worker pool is bounded; arrivals that
// find the pool and its backlog saturated are counted Lost, never
// dropped silently.
//
// On top of a run, Saturate ramps the offered QPS until an SLO breaks,
// locating the knee. The harness gates nothing: performance regressions
// are judged by `go run ./benchmark -compare`.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/impir/impir"
	"github.com/impir/impir/internal/metrics"
)

// Config shapes one load run.
type Config struct {
	// QPS is the offered open-loop arrival rate. Required.
	QPS float64
	// Duration is the measured window. Required.
	Duration time.Duration
	// Warmup runs the schedule for this long before measurement begins;
	// warmup operations are issued but discarded (connection setup, JIT
	// paths, cold caches).
	Warmup time.Duration
	// Clients is the simulated client population; arrivals round-robin
	// over it and each client draws its own deterministic operation
	// stream. 0 means 64.
	Clients int
	// Workers bounds the in-flight operation pool. 0 means
	// max(2×GOMAXPROCS, 32).
	Workers int
	// Batch is the per-operation batch size (RetrieveBatch/GetBatch
	// above 1). 0 means 1.
	Batch int
	// Workload selects what each arrival does. Empty means index.
	Workload Workload
	// Interval emits progress reports at this cadence; 0 disables them.
	Interval time.Duration
	// Timeout bounds each operation; 0 means none.
	Timeout time.Duration
	// Seed makes the operation streams reproducible.
	Seed int64
	// Topology labels the deployment in the fingerprint, e.g.
	// "2 shards × 2 parties × {2,1} replicas (cpu engine)".
	Topology string
	// OnInterval, when set, receives each progress report as it closes.
	OnInterval func(Interval)
	// ServerStats, when set, is polled at interval boundaries for the
	// servers' scheduler snapshots — available when the caller runs the
	// servers in-process (selfserve mode, tests).
	ServerStats func() []metrics.SchedulerStats
}

func (c Config) withDefaults() (Config, error) {
	if c.QPS <= 0 {
		return c, fmt.Errorf("loadgen: QPS must be positive, got %g", c.QPS)
	}
	if c.Duration <= 0 {
		return c, fmt.Errorf("loadgen: duration must be positive, got %v", c.Duration)
	}
	if c.Clients == 0 {
		c.Clients = 64
	}
	if c.Workers == 0 {
		c.Workers = max(2*runtime.GOMAXPROCS(0), 32)
	}
	if c.Batch == 0 {
		c.Batch = 1
	}
	if c.Workload == "" {
		c.Workload = WorkloadIndex
	}
	if c.Workload == WorkloadBatch && c.Batch < 2 {
		// The batch workload exists to exercise RetrieveBatch; the
		// normalised size lands in the fingerprint, keeping runs honest.
		c.Batch = defaultBatchSize
	}
	if c.Clients < 1 || c.Workers < 1 || c.Batch < 1 {
		return c, fmt.Errorf("loadgen: clients/workers/batch must be positive")
	}
	return c, nil
}

// fingerprint derives the comparability key of a run.
func (c Config) fingerprint(t Target) Fingerprint {
	return Fingerprint{
		Workload:  string(c.Workload),
		QPS:       c.QPS,
		Clients:   c.Clients,
		Workers:   c.Workers,
		Conns:     max(len(t.PerClient), 1),
		Batch:     c.Batch,
		DurationS: c.Duration.Seconds(),
		WarmupS:   c.Warmup.Seconds(),
		Records:   t.geometry().NumRecords(),
		RecordLen: t.geometry().RecordSize(),
		Topology:  c.Topology,
		Seed:      c.Seed,
	}
}

// arrival is one scheduled request.
type arrival struct {
	due time.Time
	seq uint64
}

// counters is the run accounting; all fields are atomics so workers
// never contend on a lock.
type counters struct {
	offered   atomic.Uint64
	ok        atomic.Uint64
	busy      atomic.Uint64
	timeouts  atomic.Uint64
	errs      atomic.Uint64
	lost      atomic.Uint64
	warmupOps atomic.Uint64
}

func (c *counters) snapshot() Counts {
	return Counts{
		Offered:  c.offered.Load(),
		OK:       c.ok.Load(),
		Busy:     c.busy.Load(),
		Timeouts: c.timeouts.Load(),
		Errors:   c.errs.Load(),
		Lost:     c.lost.Load(),
	}
}

// Run drives one open-loop load run against the target and returns its
// artifact. Cancelling ctx stops the schedule; workers drain their
// in-flight operations and the partial result is returned with the
// context's error.
func Run(ctx context.Context, t Target, cfg Config) (*Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	issue, err := newIssuer(t, cfg.Workload, cfg.Batch, cfg.Seed)
	if err != nil {
		return nil, err
	}

	var (
		cnt  counters
		hist Hist
		wg   sync.WaitGroup
	)
	start := time.Now()
	measuredStart := start.Add(cfg.Warmup)
	work := make(chan arrival, cfg.Workers)

	// Baselines for the measured window's deltas, captured at the warmup
	// boundary (operations straddling it smear by at most the in-flight
	// set — measurement fuzz, not drift).
	var (
		baseMu      sync.Mutex
		storeBase   metrics.StoreStats
		serverBase  []metrics.SchedulerStats
		captureBase = func() {
			baseMu.Lock()
			defer baseMu.Unlock()
			storeBase = t.storeStats()
			if cfg.ServerStats != nil {
				serverBase = cfg.ServerStats()
			}
		}
	)
	if cfg.Warmup > 0 {
		warmupTimer := time.AfterFunc(cfg.Warmup, captureBase)
		defer warmupTimer.Stop()
	} else {
		captureBase()
	}

	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for arr := range work {
				opCtx := ctx
				var cancel context.CancelFunc
				if cfg.Timeout > 0 {
					opCtx, cancel = context.WithTimeout(ctx, cfg.Timeout)
				}
				err := issue(opCtx, int(arr.seq)%cfg.Clients, arr.seq)
				lat := time.Since(arr.due)
				if cancel != nil {
					cancel()
				}
				if arr.due.Before(measuredStart) {
					cnt.warmupOps.Add(1)
					continue
				}
				switch {
				case err == nil:
					cnt.ok.Add(1)
					hist.Record(lat)
				case errors.Is(err, impir.ErrServerBusy):
					cnt.busy.Add(1)
				case errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil:
					cnt.timeouts.Add(1)
				case ctx.Err() != nil:
					// The run itself was cancelled mid-operation; the op
					// is neither the server's failure nor a timeout.
				default:
					cnt.errs.Add(1)
				}
			}
		}()
	}

	// Progress reporter.
	reporterQuit := make(chan struct{})
	reporterDone := make(chan struct{})
	var intervalsMu sync.Mutex
	var intervals []Interval
	if cfg.Interval > 0 {
		go func() {
			defer close(reporterDone)
			tick := time.NewTicker(cfg.Interval)
			defer tick.Stop()
			prevCounts := Counts{}
			prevHist := HistSnapshot{}
			var prevServers []metrics.SchedulerStats
			if cfg.ServerStats != nil {
				prevServers = cfg.ServerStats()
			}
			for {
				select {
				case <-ctx.Done():
					return
				case <-reporterQuit:
					return
				case now := <-tick.C:
					curCounts := cnt.snapshot()
					curHist := hist.Snapshot()
					iv := Interval{
						T:       now.Sub(start).Seconds(),
						Warmup:  now.Before(measuredStart),
						Counts:  curCounts.sub(prevCounts),
						Latency: quantilesOf(curHist.Sub(prevHist)),
					}
					iv.AchievedQPS = float64(iv.Counts.OK) / cfg.Interval.Seconds()
					if cfg.ServerStats != nil {
						curServers := cfg.ServerStats()
						if rep := newServerReport(curServers, prevServers); rep != nil {
							iv.Servers = rep.PerServer
						}
						prevServers = curServers
					}
					prevCounts, prevHist = curCounts, curHist
					intervalsMu.Lock()
					intervals = append(intervals, iv)
					intervalsMu.Unlock()
					if cfg.OnInterval != nil {
						cfg.OnInterval(iv)
					}
				}
			}
		}()
	} else {
		close(reporterDone)
	}

	// The open-loop schedule: warmup plus the measured window.
	pacer := NewPacer(start, cfg.QPS, cfg.Warmup+cfg.Duration)
	for {
		due, ok := pacer.Next()
		if !ok {
			break
		}
		if !sleepUntil(ctx, due) {
			break
		}
		arr := arrival{due: due, seq: uint64(pacer.Offered() - 1)}
		measured := !due.Before(measuredStart)
		if measured {
			cnt.offered.Add(1)
		}
		select {
		case work <- arr:
		default:
			// Pool and backlog saturated: the offer is lost, and saying
			// so is the point of open-loop accounting.
			if measured {
				cnt.lost.Add(1)
			} else {
				cnt.warmupOps.Add(1)
			}
		}
	}
	close(work)
	wg.Wait()
	close(reporterQuit)
	<-reporterDone

	elapsed := time.Since(measuredStart)
	if elapsed <= 0 {
		elapsed = time.Since(start) // cancelled inside warmup
	}

	res := &Result{
		Schema:      ResultSchema,
		Fingerprint: cfg.fingerprint(t),
		ElapsedS:    elapsed.Seconds(),
		Counts:      cnt.snapshot(),
		Latency:     quantilesOf(hist.Snapshot()),
		WarmupOps:   cnt.warmupOps.Load(),
		Intervals:   intervals,
	}
	res.OfferedQPS = float64(res.Counts.Offered) / elapsed.Seconds()
	res.AchievedQPS = float64(res.Counts.OK) / elapsed.Seconds()
	baseMu.Lock()
	res.Store = metrics.DeltaStore(t.storeStats(), storeBase)
	res.BatchCode = newBatchCodeReport(res.Store)
	if cfg.ServerStats != nil {
		res.Servers = newServerReport(cfg.ServerStats(), serverBase)
	}
	baseMu.Unlock()
	if kv, ok := t.kvStats(); ok {
		res.KV = &kv
	}
	return res, ctx.Err()
}
