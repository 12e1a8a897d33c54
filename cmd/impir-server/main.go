// Command impir-server runs one PIR server of a multi-server deployment.
//
// The server synthesises (or loads) its database replica deterministically
// from a seed, so two independently started servers with the same
// -records/-seed flags hold byte-identical replicas — which the client
// verifies on connect via database digests.
//
// A two-server deployment on one machine:
//
//	impir-server -listen 127.0.0.1:7100 -party 0 -records 65536 -seed 7 &
//	impir-server -listen 127.0.0.1:7101 -party 1 -records 65536 -seed 7 &
//	impir-client -servers 127.0.0.1:7100,127.0.0.1:7101 -index 123
//
// Deployments with more than two servers (the naive share encoding) run
// one impir-server per party with -party 0..n-1.
//
// -workload picks the synthetic database: hash (the paper's evaluation
// records, the default), or the application scenarios ct, credentials
// and blocklist, which internal/database generates as the examples do.
//
// Keyword stores serve a cuckoo key→value table instead of an indexed
// database: with -kv-manifest the server synthesises -records
// deterministic key→value pairs from -seed, builds the cuckoo table
// (byte-identical across replicas started with the same flags), serves
// it, and writes the table manifest JSON to the given path for clients:
//
//	impir-server -kv-manifest table.json -records 65536 -seed 7 -party 0 -listen 127.0.0.1:7100 &
//	impir-server -kv-manifest table.json -records 65536 -seed 7 -party 1 -listen 127.0.0.1:7101 &
//	impir-client -servers 127.0.0.1:7100,127.0.0.1:7101 -kv table.json get key-00000123
//
// The unified deployment manifest drives every topology through ONE
// flag pair: -deployment names the deployment.json (flat, sharded,
// replica sets per party, keyword tables — any combination) and -shard
// names this server's shard. The server synthesises the database (or,
// with a keyword section, the cuckoo table), carves its shard's row
// range, and serves it; replicas of one party run identical flags on
// different machines:
//
//	impir-server -deployment deployment.json -shard 0 -party 0 -listen 127.0.0.1:7100 &
//	impir-server -deployment deployment.json -shard 0 -party 1 -listen 127.0.0.1:7101 &
//	impir-server -deployment deployment.json -shard 1 -party 0 -listen 127.0.0.1:7200 &
//	impir-server -deployment deployment.json -shard 1 -party 1 -listen 127.0.0.1:7201 &
//	impir-client -deployment deployment.json -index 123
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"reflect"
	"strconv"
	"syscall"
	"time"

	"github.com/impir/impir"
	"github.com/impir/impir/internal/batchcode"
	"github.com/impir/impir/internal/database"
	"github.com/impir/impir/internal/keyword"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "impir-server:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		listen   = flag.String("listen", "127.0.0.1:7100", "address to listen on")
		party    = flag.Int("party", 0, "server index in the deployment (0..n-1)")
		engine   = flag.String("engine", "pim", "compute engine: pim, cpu, or gpu")
		records  = flag.Int("records", 1<<16, "records in the synthetic hash database")
		seed     = flag.Int64("seed", 1, "database generator seed (must match the peer server)")
		workload = flag.String("workload", "hash", "database workload: hash, ct, credentials, blocklist")
		dpus     = flag.Int("dpus", 0, "PIM engine: DPU count (0 = 2048)")
		clusters = flag.Int("clusters", 0, "PIM engine: DPU clusters (0 = 1)")
		threads  = flag.Int("threads", 0, "CPU engine: worker threads (0 = 32)")

		deploymentPath = flag.String("deployment", "",
			"unified deployment manifest JSON (deployment.json); the server carves its -shard row range and, with a keyword section, serves the cuckoo table")
		shard = flag.Int("shard", 0, "this server's shard index in the -deployment manifest")

		kvManifestPath = flag.String("kv-manifest", "",
			"serve a keyword (key→value) store: build a cuckoo table from -records synthetic pairs (seeded by -seed, replacing -workload) and write the table manifest JSON to this path")

		allowUpdates = flag.Bool("allow-updates", false,
			"accept database updates from network clients; enable only where the update path is restricted to the database owner")

		queueDepth = flag.Int("queue-depth", 0,
			"scheduler admission queue depth; overflow is rejected busy (0 = 256)")
		maxCoalesce = flag.Int("max-coalesce", 0,
			"max queued single queries that share one batch pass (0 = 64, 1 = no coalescing)")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second,
			"graceful drain bound on SIGTERM/SIGINT before in-flight requests are abandoned")

		adminAddr = flag.String("admin-addr", "",
			"serve the operator endpoint (GET /metrics, /healthz, /readyz, /debug/traces) on this address; empty disables it")
		slowQuery = flag.Duration("slow-query", 0,
			"log the span tree (one JSON line) of any query frame taking at least this long end-to-end (0 = off)")
		traceSample = flag.Float64("trace-sample", 0,
			"head-sample this fraction of queries arriving without a client trace context into the /debug/traces ring (0 = only client-sampled and slow queries, 1 = all)")
		pprofOn = flag.Bool("pprof", false,
			"mount net/http/pprof under /debug/pprof/ on the admin endpoint")
	)
	flag.Parse()

	if *party < 0 || *party > 255 {
		return fmt.Errorf("party %d must be in 0..255", *party)
	}
	kind, err := impir.ParseEngineKind(*engine)
	if err != nil {
		return err
	}

	var db *impir.DB
	switch {
	case *deploymentPath != "":
		db, err = buildDeploymentDatabase(*deploymentPath, *shard, *workload, *records, *seed)
	case *kvManifestPath != "":
		*workload = "keyword"
		db, err = buildKVDatabase(*kvManifestPath, *records, *seed)
	default:
		db, err = buildDatabase(*workload, *records, *seed)
	}
	if err != nil {
		return err
	}

	// Sharded invocations stamp traces with their shard so an
	// operator tailing logs from many processes can tell them apart.
	traceShard := ""
	if *deploymentPath != "" {
		traceShard = strconv.Itoa(*shard)
	}
	srv, err := impir.NewServer(impir.ServerConfig{
		Engine:             kind,
		DPUs:               *dpus,
		Clusters:           *clusters,
		Threads:            *threads,
		QueueDepth:         *queueDepth,
		MaxCoalesce:        *maxCoalesce,
		AllowWireUpdates:   *allowUpdates,
		SlowQueryThreshold: *slowQuery,
		TraceShard:         traceShard,
		TraceSampleRate:    *traceSample,
		EnablePprof:        *pprofOn,
	})
	if err != nil {
		return err
	}
	defer srv.Close()

	log.Printf("loading %d×%dB records (%s workload, seed %d) into %s engine…",
		db.NumRecords(), db.RecordSize(), *workload, *seed, srv.EngineName())
	if err := srv.Load(db); err != nil {
		return err
	}
	digest := srv.Database().Digest()
	log.Printf("replica digest %x", digest[:8])

	// The admin endpoint starts before the query listener so /readyz can
	// answer 503 during the (potentially long) database load of a restarted
	// replica — an orchestrator sees "up but not ready", not "down".
	// Admin serving errors after shutdown are expected (ErrServerClosed);
	// anything earlier is fatal because an operator relying on probes
	// must not run blind.
	adminErr := make(chan error, 1)
	if *adminAddr != "" {
		alis, err := net.Listen("tcp", *adminAddr)
		if err != nil {
			return fmt.Errorf("admin listener: %w", err)
		}
		go func() { adminErr <- srv.ServeAdmin(alis) }()
		log.Printf("admin endpoint (metrics, healthz, readyz) on %s", alis.Addr())
	}

	lis, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	if err := srv.Serve(lis, uint8(*party)); err != nil {
		return err
	}
	log.Printf("party %d serving %s engine on %s", *party, srv.EngineName(), srv.Addr())

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case <-stop:
	case err := <-adminErr:
		return fmt.Errorf("admin endpoint failed: %w", err)
	}
	// Shutdown flips /readyz to 503 first, drains queries, and stops the
	// admin listener last — so the orchestrator watches the whole drain.
	log.Printf("draining (up to %v)…", *drainTimeout)
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	err = srv.Shutdown(ctx)
	log.Printf("final queue stats: %v", srv.QueueStats())
	if err != nil {
		return fmt.Errorf("graceful drain incomplete: %w", err)
	}
	log.Printf("drained cleanly")
	return nil
}

// buildDeploymentDatabase synthesises the database a unified deployment
// manifest describes and carves this server's shard out of it. With a
// keyword section the cuckoo table is rebuilt from (-records, -seed)
// and must reproduce the manifest's geometry exactly — catching a
// deployment.json that drifted from the data it was generated for
// before a single query is served.
func buildDeploymentDatabase(path string, shard int, workload string, records int, seed int64) (*impir.DB, error) {
	d, err := impir.LoadDeployment(path)
	if err != nil {
		return nil, err
	}
	if shard < 0 || shard >= d.NumShards() {
		return nil, fmt.Errorf("shard %d outside deployment of %d shards", shard, d.NumShards())
	}
	var db *impir.DB
	if d.Keyword != nil {
		pairs := keyword.GeneratePairs(records, seed)
		table, err := keyword.BuildTable(pairs, keyword.Options{Seed: seed})
		if err != nil {
			return nil, err
		}
		if !reflect.DeepEqual(table.Manifest, *d.Keyword) {
			return nil, fmt.Errorf("rebuilt keyword table does not match the deployment's keyword section (were -records/-seed %d/%d the values deployment.json was generated with?)", records, seed)
		}
		if db, err = table.DB(); err != nil {
			return nil, err
		}
		log.Printf("keyword store: %d pairs in %d+%d buckets (load factor %.2f)",
			len(pairs), table.Manifest.NumBuckets, table.Manifest.StashBuckets, table.LoadFactor())
	} else if db, err = buildDatabase(workload, records, seed); err != nil {
		return nil, err
	}
	if d.BatchCode != nil {
		// The deployment's rows are a batch-code encoding of the logical
		// database just built: replicate each record into its r candidate
		// buckets before the geometry checks and shard carving — the
		// served shards hold coded rows, and the layout replay is
		// deterministic, so independently started replicas stay
		// byte-identical.
		code := *d.BatchCode
		if uint64(db.NumRecords()) != code.NumRecords {
			return nil, fmt.Errorf("synthetic database has %d records, the deployment's batch code encodes %d (were -records/-seed the values deployment.json was generated for?)",
				db.NumRecords(), code.NumRecords)
		}
		if db, err = batchcode.Encode(db, code); err != nil {
			return nil, err
		}
		log.Printf("batch code: %d logical records → %d coded rows (%d buckets × %d rows, %d-way replication)",
			code.NumRecords, code.TotalRows(), code.Buckets, code.BucketRows, code.Choices)
	}
	if d.RecordSize > 0 && db.RecordSize() != d.RecordSize {
		return nil, fmt.Errorf("synthetic database has %d-byte records, deployment declares %d", db.RecordSize(), d.RecordSize)
	}
	if want := d.NumRecords(); want > 0 && uint64(db.NumRecords()) != want {
		return nil, fmt.Errorf("synthetic database has %d records, deployment declares %d", db.NumRecords(), want)
	}
	if d.NumShards() == 1 {
		return db, nil
	}
	// The carve aliases db's rows; Server.Load keeps its own copy.
	s, rs := d.Shards[shard], uint64(db.RecordSize())
	part, err := database.FromFlat(db.Data()[s.FirstRecord*rs:s.End()*rs], db.RecordSize())
	if err != nil {
		return nil, err
	}
	log.Printf("serving shard %d/%d: global records [%d,%d)", shard, d.NumShards(), s.FirstRecord, s.End())
	return part, nil
}

// buildKVDatabase synthesises a deterministic keyword corpus, builds
// its cuckoo table, and writes the table manifest for clients. The
// build depends only on (records, seed), so independently started
// replicas serve byte-identical tables — and publish identical
// manifest files (atomically, via rename: replicas sharing a path and
// clients polling for it never observe a truncated write).
func buildKVDatabase(manifestPath string, records int, seed int64) (*impir.DB, error) {
	pairs := keyword.GeneratePairs(records, seed)
	table, err := keyword.BuildTable(pairs, keyword.Options{Seed: seed})
	if err != nil {
		return nil, err
	}
	db, err := table.DB()
	if err != nil {
		return nil, err
	}
	data, err := table.Manifest.JSON()
	if err != nil {
		return nil, err
	}
	tmp := fmt.Sprintf("%s.%d.tmp", manifestPath, os.Getpid())
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return nil, fmt.Errorf("write kv manifest: %w", err)
	}
	if err := os.Rename(tmp, manifestPath); err != nil {
		os.Remove(tmp)
		return nil, fmt.Errorf("publish kv manifest: %w", err)
	}
	m := table.Manifest
	log.Printf("keyword store: %d pairs in %d+%d buckets (k=%d, capacity %d, load factor %.2f, %d stashed); manifest written to %s",
		len(pairs), m.NumBuckets, m.StashBuckets, m.Hashes(), m.BucketCapacity,
		table.LoadFactor(), table.Stashed(), manifestPath)
	return db, nil
}

func buildDatabase(workload string, records int, seed int64) (*impir.DB, error) {
	switch workload {
	case "hash":
		return impir.GenerateHashDB(records, seed)
	case "ct":
		db, _, err := database.GenerateCTLog(records, seed)
		return db, err
	case "credentials":
		db, _, err := database.GenerateCredentialDB(records, seed)
		return db, err
	case "blocklist":
		db, _, err := database.GenerateBlocklist(records, seed)
		return db, err
	default:
		return nil, fmt.Errorf("unknown workload %q (want hash, ct, credentials, or blocklist)", workload)
	}
}
