// Command impir-loadgen drives open-loop load into a live IM-PIR
// deployment and reports offered load, latency quantiles, failure
// accounting, and — when it runs the servers itself — the servers'
// scheduler deltas, all in one JSON artifact.
//
// Usage:
//
//	impir-loadgen -deployment deployment.json -qps 500 -duration 30s
//	impir-loadgen -selfserve -qps 200 -workload mixed -json
//	impir-loadgen -selfserve -ramp -slo-p99 50ms        # find the knee
//
// The generator is open-loop: the arrival schedule never slows down for
// a struggling server, and latency is measured from each request's
// scheduled due time (no coordinated omission). -selfserve spins up a
// deterministic 2-shard replicated deployment in-process over loopback
// TCP, so the artifact can include server-side scheduler deltas no wire
// protocol exposes. It is an operator tool, not a regression gate: the
// repository's one performance gate is `go run ./benchmark` (-compare).
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"slices"
	"syscall"
	"time"

	"github.com/impir/impir"
	"github.com/impir/impir/internal/keyword"
	"github.com/impir/impir/internal/loadgen"
	"github.com/impir/impir/internal/metrics"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("impir-loadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)

	var (
		deployPath = fs.String("deployment", "", "deployment.json of the system under test")
		selfserve  = fs.Bool("selfserve", false, "serve a deterministic 2-shard replicated deployment in-process over loopback TCP (enables server-side scheduler deltas)")
		records    = fs.Int("records", 4096, "selfserve: database records")
		engine     = fs.String("engine", "cpu", "selfserve: engine (pim, cpu, gpu)")
		queueDepth = fs.Int("queue-depth", 0, "selfserve: scheduler admission queue bound (0 = server default)")

		qps         = fs.Float64("qps", 200, "offered open-loop arrival rate")
		duration    = fs.Duration("duration", 10*time.Second, "measured window")
		warmup      = fs.Duration("warmup", 2*time.Second, "warmup window, discarded from measurement")
		interval    = fs.Duration("interval", 5*time.Second, "progress report cadence (0 disables)")
		clients     = fs.Int("clients", 64, "simulated client population")
		workers     = fs.Int("workers", 0, "in-flight operation bound (0 = 2×GOMAXPROCS, min 32)")
		batch       = fs.Int("batch", 1, "queries per operation (RetrieveBatch/GetBatch above 1)")
		workload    = fs.String("workload", "index", "workload: index, keyword, mixed, or batch (multi-record RetrieveBatch; batch defaults to 8)")
		conns       = fs.Int("conns", 8, "parallel connection pools for the client population (a server answers one wire connection's requests one at a time)")
		timeout     = fs.Duration("timeout", 5*time.Second, "per-operation deadline (0 = none)")
		seed        = fs.Int64("seed", 1, "operation stream seed")
		keysPath    = fs.String("keys", "", "keyword corpus file, one key per line (remote keyword workloads)")
		traceSample = fs.Float64("trace-sample", 0,
			"client-side trace sample rate in [0,1]; sampled span trees are summarised into the run artifact (0 = tracing off, no overhead)")

		ramp        = fs.Bool("ramp", false, "saturation search: ramp QPS from -qps until the SLO breaks, then measure at the knee")
		rampMax     = fs.Float64("ramp-max", 0, "ramp ceiling (0 = 64×start)")
		rampFactor  = fs.Float64("ramp-factor", 1.5, "ramp step multiplier")
		rampStep    = fs.Duration("ramp-step", 3*time.Second, "measured window per ramp step")
		sloP99      = fs.Duration("slo-p99", 0, "ramp SLO: max p99 latency (0 = unchecked)")
		sloFailures = fs.Float64("slo-failures", 0.01, "ramp SLO: max failure fraction of offered load")

		jsonOut = fs.Bool("json", false, "write the run artifact as JSON to stdout (progress goes to stderr)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, err := loadgen.ParseWorkload(*workload)
	if err != nil {
		fmt.Fprintln(stderr, "impir-loadgen:", err)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Resolve the system under test.
	var (
		d        impir.Deployment
		topology string
		keys     [][]byte
		srvStats func() []metrics.SchedulerStats
	)
	switch {
	case *selfserve:
		ss, err := buildSelfserve(*records, *engine, *queueDepth, *seed, wl != loadgen.WorkloadIndex)
		if err != nil {
			fmt.Fprintln(stderr, "impir-loadgen:", err)
			return 1
		}
		defer ss.close()
		d, topology, keys, srvStats = ss.deployment, ss.topology, ss.keys, ss.stats
	case *deployPath != "":
		d, err = impir.LoadDeployment(*deployPath)
		if err != nil {
			fmt.Fprintln(stderr, "impir-loadgen:", err)
			return 1
		}
		topology = fmt.Sprintf("%s: %d shards", *deployPath, d.NumShards())
		if keys, err = loadKeys(*keysPath); err != nil {
			fmt.Fprintln(stderr, "impir-loadgen:", err)
			return 1
		}
	default:
		fmt.Fprintln(stderr, "impir-loadgen: need -deployment deployment.json or -selfserve")
		return 2
	}

	// The client population's connection pool: one wire connection
	// serves one request at a time, so parallel pools are what let the
	// offered load actually reach the servers concurrently.
	if *conns < 1 {
		*conns = 1
	}
	// An Observer serves one store, so each pool's store and keyword
	// view gets its own; the artifact summarises all of their rings.
	var observers []*impir.Observer
	observe := func() []impir.ClientOption {
		if *traceSample <= 0 {
			return nil
		}
		o := impir.NewObserver(impir.ObserverConfig{SampleRate: *traceSample})
		observers = append(observers, o)
		return []impir.ClientOption{o.Option()}
	}
	target := loadgen.Target{Keys: keys}
	for i := 0; i < *conns; i++ {
		store, err := impir.Open(ctx, d, observe()...)
		if err != nil {
			fmt.Fprintln(stderr, "impir-loadgen: open:", err)
			return 1
		}
		defer store.Close()
		target.PerClient = append(target.PerClient, store)
		if wl != loadgen.WorkloadIndex {
			kv, err := impir.OpenKV(ctx, d, observe()...)
			if err != nil {
				fmt.Fprintln(stderr, "impir-loadgen: open keyword view:", err)
				return 1
			}
			defer kv.Close()
			target.PerClientKV = append(target.PerClientKV, kv)
		}
	}
	target.Store = target.PerClient[0]

	cfg := loadgen.Config{
		QPS:         *qps,
		Duration:    *duration,
		Warmup:      *warmup,
		Clients:     *clients,
		Workers:     *workers,
		Batch:       *batch,
		Workload:    wl,
		Interval:    *interval,
		Timeout:     *timeout,
		Seed:        *seed,
		Topology:    topology,
		ServerStats: srvStats,
	}
	if *interval > 0 {
		cfg.OnInterval = func(iv loadgen.Interval) { fmt.Fprintln(stderr, iv.Format()) }
	}

	// The artifact describes the final run's measured window: traces
	// that start before it (warmup, ramp steps) are left out.
	var measuredFrom time.Time
	measure := func() (*loadgen.Result, error) {
		measuredFrom = time.Now().Add(cfg.Warmup)
		return loadgen.Run(ctx, target, cfg)
	}
	var res *loadgen.Result
	if *ramp {
		rr, err := loadgen.Saturate(ctx, target, cfg, loadgen.RampConfig{
			StartQPS:     *qps,
			MaxQPS:       *rampMax,
			StepFactor:   *rampFactor,
			StepDuration: *rampStep,
			SLO:          loadgen.SLO{MaxP99: *sloP99, MaxFailureRate: *sloFailures},
		})
		if err != nil {
			fmt.Fprintln(stderr, "impir-loadgen: ramp:", err)
			return 1
		}
		if rr.MaxGoodQPS > 0 {
			// Full measured run at the knee, with the search attached.
			cfg.QPS = rr.MaxGoodQPS
			res, err = measure()
			if err != nil {
				fmt.Fprintln(stderr, "impir-loadgen:", err)
				return 1
			}
		} else {
			res = &loadgen.Result{Schema: loadgen.ResultSchema}
			measuredFrom = time.Now()
		}
		res.Ramp = rr
	} else {
		res, err = measure()
		if err != nil {
			fmt.Fprintln(stderr, "impir-loadgen:", err)
			return 1
		}
	}

	if observers != nil {
		var snaps []impir.TraceSnapshot
		for _, o := range observers {
			for _, sn := range o.RecentTraces(0) {
				if !sn.Start.Before(measuredFrom) {
					snaps = append(snaps, sn)
				}
			}
		}
		slices.SortStableFunc(snaps, func(a, b impir.TraceSnapshot) int { return b.Start.Compare(a.Start) })
		res.Traces = traceSummaries(snaps)
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintln(stderr, "impir-loadgen:", err)
			return 1
		}
	} else {
		res.PrintHuman(stdout)
	}

	return 0
}

// selfserveDeployment is an in-process 2-shard replicated topology over
// real loopback TCP: shard 0's party 0 runs two replicas (a hedging
// target), every other party one — five servers total. Deterministic by
// construction, so two runs with the same flags drive the same system.
type selfserveDeployment struct {
	deployment impir.Deployment
	topology   string
	keys       [][]byte
	servers    []*impir.Server
}

func buildSelfserve(records int, engineName string, queueDepth int, seed int64, withKV bool) (*selfserveDeployment, error) {
	var eng impir.EngineKind
	switch engineName {
	case "pim":
		eng = impir.EnginePIM
	case "cpu":
		eng = impir.EngineCPU
	case "gpu":
		eng = impir.EngineGPU
	default:
		return nil, fmt.Errorf("unknown engine %q (want pim, cpu, or gpu)", engineName)
	}

	ss := &selfserveDeployment{}
	var db *impir.DB
	var kvm impir.KVManifest
	var err error
	if withKV {
		pairs := keyword.GeneratePairs(records, seed)
		db, kvm, err = impir.BuildKVDB(pairs, impir.KVTableOptions{Seed: seed})
		if err != nil {
			return nil, fmt.Errorf("build keyword table: %w", err)
		}
		ss.keys = make([][]byte, len(pairs))
		for i, p := range pairs {
			ss.keys[i] = p.Key
		}
	} else {
		db, err = impir.GenerateHashDB(records, seed)
		if err != nil {
			return nil, err
		}
	}

	parts, err := impir.SplitDB(db, 2)
	if err != nil {
		return nil, err
	}
	serve := func(part *impir.DB, party uint8) (string, error) {
		srv, err := impir.NewServer(impir.ServerConfig{Engine: eng, QueueDepth: queueDepth})
		if err != nil {
			return "", err
		}
		if err := srv.Load(part); err != nil {
			srv.Close()
			return "", err
		}
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			srv.Close()
			return "", err
		}
		if err := srv.Serve(lis, party); err != nil {
			srv.Close()
			return "", err
		}
		ss.servers = append(ss.servers, srv)
		return srv.Addr().String(), nil
	}

	var shards []impir.DeploymentShard
	first := uint64(0)
	for s, part := range parts {
		var parties []impir.Party
		for party := 0; party < 2; party++ {
			replicas := 1
			if s == 0 && party == 0 {
				replicas = 2 // hedging target
			}
			var addrs []string
			for r := 0; r < replicas; r++ {
				addr, err := serve(part, uint8(party))
				if err != nil {
					ss.close()
					return nil, err
				}
				addrs = append(addrs, addr)
			}
			parties = append(parties, impir.Party{Replicas: addrs})
		}
		shards = append(shards, impir.DeploymentShard{
			FirstRecord: first,
			NumRecords:  uint64(part.NumRecords()),
			Parties:     parties,
		})
		first += uint64(part.NumRecords())
	}
	ss.deployment = impir.Deployment{RecordSize: db.RecordSize(), Shards: shards}
	if withKV {
		ss.deployment = ss.deployment.WithKeyword(kvm)
	}
	ss.topology = fmt.Sprintf("selfserve/%s: 2 shards × 2 parties, %d servers", engineName, len(ss.servers))
	return ss, nil
}

func (ss *selfserveDeployment) close() {
	for _, srv := range ss.servers {
		srv.Close()
	}
}

// stats polls every selfserve server's scheduler snapshot in a fixed
// order, so interval and window deltas line up server by server.
func (ss *selfserveDeployment) stats() []metrics.SchedulerStats {
	out := make([]metrics.SchedulerStats, len(ss.servers))
	for i, srv := range ss.servers {
		out[i] = srv.QueueStats()
	}
	return out
}

// traceSummaries condenses the observers' sampled span trees into the
// artifact's flat summary form: op, duration, tree width, error.
func traceSummaries(snaps []impir.TraceSnapshot) []loadgen.TraceSummary {
	var count func(impir.TraceSnapshot) int
	count = func(sn impir.TraceSnapshot) int {
		n := 1
		for _, c := range sn.Children {
			n += count(c)
		}
		return n
	}
	out := make([]loadgen.TraceSummary, 0, len(snaps))
	for _, sn := range snaps {
		errAttr, _ := sn.Attr("error")
		out = append(out, loadgen.TraceSummary{
			TraceID: sn.TraceID,
			Op:      sn.Name,
			DurUS:   sn.DurUS,
			Spans:   count(sn),
			Error:   errAttr,
		})
	}
	return out
}

// loadKeys reads a keyword corpus file: one key per line, blank lines
// skipped.
func loadKeys(path string) ([][]byte, error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var keys [][]byte
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Bytes(); len(line) > 0 {
			keys = append(keys, append([]byte(nil), line...))
		}
	}
	return keys, sc.Err()
}
