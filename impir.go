// Package impir is a Go implementation of IM-PIR — in-memory private
// information retrieval (Mwaisela et al., MIDDLEWARE 2025) — together
// with the complete stack it builds on: a tree-based distributed point
// function (DPF), a calibrated cost model of the UPMEM processing-in-
// memory system that prices each pass (its functional tasklet simulator
// is the pricer's test oracle), CPU and GPU baseline pricers, and a TCP
// transport for multi-server deployments. This documentation is the
// canonical description of the protocol and its features; the README
// holds the operator pages (server flags, load harness, metric
// catalogue) and a map from paper sections to packages and benchmark
// rows.
//
// # Protocol
//
// Two-server PIR: a public database D of N fixed-size records is
// replicated on two non-colluding servers. To fetch D[i] privately, the
// client generates a DPF key pair with GenerateKeys — two keys that
// secret-share the one-hot indicator of i — and sends one key to each
// server. Each server expands its key over the full index space and XORs
// together the records whose share bit is set (the dpXOR scan, offloaded
// to PIM DPUs by the IM-PIR engine). The client XORs the two subresults
// with Reconstruct to obtain D[i]. Neither server learns anything about
// i, and each server's work is a linear scan regardless of the query —
// the "all-for-one" principle that makes PIR memory-bound and PIM a
// natural fit. With more than two servers the DPF gives way to the
// naive §2.3 scheme: the client sends each server an explicit N-bit
// selector share, any proper subset of which is uniformly random. Open
// picks that encoding from the party count (EncodingShares).
//
// # Quick start
//
// The two-server protocol in one process, through the low-level
// primitives (network deployments, and every n-server one, go through
// Open below):
//
//	ctx := context.Background()
//	db, _ := impir.GenerateHashDB(1<<12, 1) // 4096 random 32-byte records
//	s0, _ := impir.NewServer(impir.ServerConfig{})
//	s1, _ := impir.NewServer(impir.ServerConfig{})
//	s0.Load(db)
//	s1.Load(db)
//	k0, k1, _ := impir.GenerateKeys(db.NumRecords(), 42)
//	r0, _, _ := s0.Answer(ctx, k0)
//	r1, _, _ := s1.Answer(ctx, k1)
//	record, _ := impir.Reconstruct(r0, r1) // == db.Record(42)
//
// # Unified Store API
//
// Network deployments go through one entry point: Open, over a unified
// deployment manifest (deployment.json), returns a Store — always a
// *Client: Retrieve, RetrieveBatch, Update, Stats, Close — whatever
// topology it describes:
//
//	Deployment (deployment.json)
//	└── Shards        contiguous row ranges tiling the record space
//	    └── Parties   ≥ 2 mutually NON-COLLUDING query recipients;
//	        │         each receives exactly one share per query
//	        └── Replicas  ≥ 1 interchangeable servers of ONE party —
//	                      identical data, hedging/failover targets
//	└── Keyword       optional cuckoo key→value table over the records
//	└── BatchCode     optional multi-message code over the records
//
//	d, _ := impir.LoadDeployment("deployment.json")
//	store, _ := impir.Open(ctx, d)
//	defer store.Close()
//	record, _ := store.Retrieve(ctx, 42)
//
// Every call runs one pipeline: a code step maps indices to served rows
// (the identity unless the manifest declares a batch code), a shard step
// splits the rows over the shard cohorts (a flat deployment is one
// shard), every cohort is queried at once, and the parties' subresults
// are XORed back into records. Queries encode under an Encoding — DPF
// key pairs for two parties, naive §2.3 selector shares for n, chosen
// per cohort or forced with WithEncoding — so latency is the slowest
// party, not the sum. OpenKV returns the key→value view of a manifest
// carrying a keyword table.
//
// Open installs store-level policy that every call may override:
// WithCallTimeout bounds a whole operation, WithRetries grants a
// transient-failure budget whose attempts transparently redial broken
// connections, and WithHedging/WithHedgeDelay control hedged
// replica fan-out. An Observer, installed with its Option, wraps each
// logical operation (Retrieve, RetrieveBatch, Update) in one root span,
// however many shards, coded slots, hedges and retries it spans.
//
// # Hedged replica fan-out
//
// A party may run several interchangeable replicas. Each query share
// goes to the party's fastest-known replica (EWMA-ordered); when the
// primary lags past the hedge delay — adapted upward to 2× its usual
// latency — or fails, the SAME share goes to the party's next replica,
// the first valid answer wins, and the losers are cancelled, so tail
// stalls (a GC pause, an update quiesce) leave the critical path. A dead
// replica degrades its party to the survivors; updates still require
// every replica, so a dead one never serves stale records as current.
//
// Privacy argument: all replicas of one party form ONE trust domain
// holding identical data, and a hedged attempt carries exactly the
// share that party was sent anyway, so hedging adds no leakage. The
// manifest's party/replica distinction is the privacy boundary: never
// list a server under a party it does not trust, as that would hand two
// shares of one query to one operator.
//
// # Server-side scheduling
//
// Every Server runs its engine behind a request scheduler: a bounded
// admission queue (overflow is rejected with ErrServerBusy — a MsgBusy
// frame on the wire — instead of unbounded queueing), coalescing that
// runs the single queries queued together, from different clients, as
// one §3.4 batch-pipeline pass without ever holding a query back to wait
// for others, and epoch-based quiescing that makes Update safe under
// live query load (ServerConfig's QueueDepth and MaxCoalesce;
// Server.QueueStats).
//
// # Operability
//
// Server.ServeAdmin serves an operator plane on its own listener:
// /metrics (Prometheus text; the scheduler counts into the same
// registry cells QueueStats reads), /healthz, /readyz, /debug/traces
// and, when enabled, /debug/pprof/ — the README lists the families.
// ServerConfig.SlowQueryThreshold logs
// the span tree of every dispatch crossing it as one JSON line — the
// same object /debug/traces serves for that query. On the client, an
// Observer (NewObserver) holds one store's registry and trace ring and
// serves both through the same handler: every client counter is one
// cell there, the same cell Store.Stats and KVClient.Stats read.
// Everything exported is an operational aggregate: indices' timing,
// never their values.
//
// # Distributed tracing
//
// The Observer's trace ring is the per-query half: a head-sampled root
// span per logical operation, child spans for every shard sub-query,
// party, and replica attempt, and a ring of finished span trees
// (Observer.RecentTraces, or its handler's /debug/traces). A server
// traces a query as one span tree too: a server.<frame> root under the
// party-local span ID, with queue-wait and engine-pass children (the
// engine's per-phase breakdown as attributes). It keeps the trees in
// its own ring at the admin endpoint's /debug/traces?min_ms=N, fed by
// client-sampled queries, ServerConfig.TraceSampleRate and slow
// queries.
//
// Privacy argument: tracing must not weaken the non-collusion model,
// so NO SHARED TRACE ID EVER CROSSES A PARTY BOUNDARY. The wire trace
// context a server receives is the span ID of that one replica
// attempt, drawn independently at random per attempt — two parties
// (indeed two replicas) never receive the same ID, and because the IDs
// are independent uniform draws, colluding servers comparing their
// contexts learn nothing about whether two queries belong to the same
// operation beyond the arrival timing they already observe. Besides
// the ID, the context carries one sampled bit: whether the client's
// head sampler picked the operation (an operation traced only for
// ObserverConfig.SlowThreshold sends it clear). Every party of one
// operation sees the same bit, exactly as every party sees whether a
// context is present at all, which under head sampling alone already
// implies the bit; it depends on the sampling rate and a random draw,
// never on the index. The linkage lives only client-side: the client's
// span tree records each attempt's ID, which equals the span_id of
// exactly that server's ring entry, so the operator of the CLIENT can join the halves while
// the servers cannot. Shard real/dummy marking and keyword probe counts
// exist only in client-side spans; a traced query's wire bytes differ
// from an untraced one's only by the trace-context extension (a header
// flag and its 9-byte prefix).
//
// # Batched execution
//
// The server engine answers through one pass, expand then scan, whatever
// machine ServerConfig.Engine prices it on. A pass of width B — one
// query, a RetrieveBatch, or single queries coalesced
// across connections, each key checked first so a bad one fails only
// its sender — expands every DPF key into its selector (a share already
// is one), then streams the database through the scan hardware once
// while B XOR accumulators fill: each MRAM chunk crosses the PIM DMA bus
// once per pass, and the CPU scan XORs a record once per 8 selectors.
// `go run ./benchmark` reports xorop.batch8_gbps against
// xorop.scan_gbps; SchedulerStats.FusedPasses counts fused passes.
//
// Privacy argument: fusion changes only the order in which the server
// combines work it was already sent. Each query in the pass contributes
// exactly the selector share the server would have received and
// expanded anyway; every share still touches every record (the
// all-for-one scan), the per-query subresults are computed and returned
// individually, and no cross-query state outlives the pass: the CPU
// scan's subset table, whose slots mix up to 8 queries, is per-pass
// scratch. A fusing server observes what a looping one observes, so
// batching leaks nothing beyond what the unbatched protocol reveals —
// the queries' arrival times and count, which the server sees
// regardless.
//
// # Sharded deployments
//
// One server pair caps out at one machine's memory bandwidth: every
// query scans the whole replica. To scale across machines, carve the
// database into row-range shards with SplitDB, serve each from its own
// cohort, and list the cohorts in the deployment; UniformManifest
// builds the one whose row ranges SplitDB carves:
//
//	parts, _ := impir.SplitDB(db, 4)          // parts[i] → cohort i
//	d, _ := impir.UniformManifest(n, 32, cohorts)
//	store, _ := impir.Open(ctx, d)
//	record, _ := store.Retrieve(ctx, 123456)  // global index
//
// Privacy argument: every retrieval sends one well-formed sub-query to
// EVERY cohort — the real local index to the owning shard, a random
// dummy to each other — and a PIR query reveals nothing about its
// index, so no cohort can tell whether it owned the record; a batch
// sends every cohort an equal-length batch, so even its shape leaks
// nothing. Per-shard scan work falls by the shard factor; latency is the
// slowest cohort. Update routes each dirty row to its owning cohort only
// (updates are public operator actions); servers accept wire updates
// only with ServerConfig.AllowWireUpdates.
//
// Shard when one box's memory bandwidth is the bottleneck; coalesce
// when query arrival rate is. The levers compose: shards split the
// scan, coalescing shares one pass across clients, and fusion makes wide
// passes nearly free until the scan turns ALU-bound.
//
// # Keyword retrieval
//
// Index-PIR answers "record i"; real workloads ask "the value for key
// K", and a published key→index directory would grow with the corpus
// and hand its fingerprint to every client. The keyword layer instead
// stores pairs in a deterministic seeded k-ary cuckoo table — each key
// in one of k candidate buckets derived from public seeds, overflow in
// a small constant-size stash — serialised into an ordinary DB (one
// bucket = one record) by BuildKVDB and described by a KVManifest:
//
//	db, manifest, _ := impir.BuildKVDB(pairs, impir.KVTableOptions{})
//	// … load db into ≥ 2 replicas, serve …
//	kv, _ := impir.OpenKV(ctx, impir.FlatDeployment(addrs...).WithKeyword(manifest))
//	value, err := kv.Get(ctx, key) // ErrNotFound when absent
//
// Privacy argument: every lookup retrieves the key's k candidate
// buckets plus the whole stash in one RetrieveBatch. The probe count
// k+S is a public constant of the manifest, and each PIR sub-query hides
// which bucket it read, so the servers learn neither the key nor
// hit/miss: a miss is byte-identical on the wire to a hit. GetBatch
// fetches n keys as n·k probes plus one shared stash scan. Put and
// Delete probe with the same shape, then rewrite the one affected bucket
// through the wire-update path (a public operator action). On a sharded
// deployment every cohort receives an equal-length sub-batch whether or
// not it owns a probed bucket.
//
// # Multi-message batches
//
// Fusion amortises the scan across a batch, but every server still
// evaluates B selectors per B-record RetrieveBatch. The probabilistic
// batch code removes that linear factor: each logical record is hashed
// (public seeds) into r of C candidate buckets, and the servers load the
// coded database —
//
//	logical record i ── h_1(i), …, h_r(i) ──► r of the C buckets
//	coded DB = bucket_0 ‖ bucket_1 ‖ … ‖ bucket_{C-1} ‖ overflow
//
// — while the client plans a batch as a matching of records onto
// distinct buckets. Every batch the matching places costs a CONSTANT
// C+overflow sub-queries — a real coded row where the matching placed a
// record, a uniform row of the slot's bucket elsewhere — and on
// bucket-aligned shards each cohort receives exactly C/shards+overflow.
// A deployment opts in with a batch_code section (WithBatchCode; derive
// it with DeriveBatchCode and serve EncodeBatchCode's output); Open then
// plans every RetrieveBatch, keyword probes included, through the code.
// Coded sub-queries are ordinary PIR queries: no protocol change.
//
// Privacy argument: a placed batch's query shape — slot count, order,
// and each slot's index domain — is a function of the public manifest
// alone. Dummies are uniform over the same domain as real rows; which
// slots were real or dummy exists only client-side. A batch the planner
// cannot place — over max_batch, or more records than its buckets and
// overflow slots can hold — falls back to the uncoded shape, one
// sub-query per record (StoreStats.CodeFallbacks). Whether a batch falls
// back depends on the records it asks for, so the fallback's frame size
// tells the servers something about the demand: with 8 buckets, 2
// overflow slots and max_batch 16, 11 or more distinct records always
// fall back. ROADMAP's constant-shape item makes the coded shape the
// only one.
//
// The examples/ directory holds runnable programs; the README lists
// them. Their scenario data (a CT log, a breach corpus, a URL
// blocklist) comes from internal/database, not from this package.
package impir

import (
	"errors"
	"fmt"
	"math/bits"

	"github.com/impir/impir/internal/database"
	"github.com/impir/impir/internal/dpf"
	"github.com/impir/impir/internal/metrics"
	"github.com/impir/impir/internal/xorop"
)

// Key is one party's DPF query key. Keys are generated in pairs by
// GenerateKeys; each key individually reveals nothing about the queried
// index. Keys implement encoding.BinaryMarshaler/Unmarshaler for
// transmission.
type Key = dpf.Key

// DB is a PIR database: N fixed-size records replicated across servers.
type DB = database.DB

// Breakdown is a per-phase timing report for one query: both measured
// wall-clock and the modeled duration on the paper's hardware.
type Breakdown = metrics.Breakdown

// BatchStats summarises a processed batch (throughput, latency, per-query
// phase breakdown).
type BatchStats = metrics.BatchStats

// NewDatabase returns a zero-filled database with the given geometry.
func NewDatabase(numRecords, recordSize int) (*DB, error) {
	return database.New(numRecords, recordSize)
}

// GenerateHashDB synthesises the paper's evaluation workload: numRecords
// pseudorandom 32-byte hash records, deterministic in seed.
func GenerateHashDB(numRecords int, seed int64) (*DB, error) {
	return database.GenerateHashDB(numRecords, seed)
}

// domainFor returns the DPF domain (log₂ of the index space) covering a
// database of numRecords: ⌈log₂ numRecords⌉.
func domainFor(numRecords int) (int, error) {
	if numRecords < 1 {
		return 0, fmt.Errorf("impir: numRecords %d must be ≥ 1", numRecords)
	}
	return bits.Len(uint(numRecords - 1)), nil
}

// GenerateKeys produces the two-server query for index: a DPF key pair
// secret-sharing the one-hot indicator of index over a database of
// numRecords records. Send k0 to server 0 and k1 to server 1; neither
// key alone reveals index.
func GenerateKeys(numRecords int, index uint64) (k0, k1 *Key, err error) {
	domain, err := domainFor(numRecords)
	if err != nil {
		return nil, nil, err
	}
	if index >= uint64(numRecords) {
		return nil, nil, fmt.Errorf("impir: index %d outside database of %d records", index, numRecords)
	}
	return dpf.Gen(dpf.Params{Domain: domain}, index, nil)
}

// Reconstruct XORs the servers' subresults into the queried record.
// With the standard two-server deployment pass exactly two subresults;
// deployments with more servers pass one per server.
func Reconstruct(subresults ...[]byte) ([]byte, error) {
	if len(subresults) < 2 {
		return nil, errors.New("impir: reconstruction needs at least two subresults")
	}
	out := make([]byte, len(subresults[0]))
	copy(out, subresults[0])
	for i, sub := range subresults[1:] {
		if err := xorop.XORBytes(out, sub); err != nil {
			return nil, fmt.Errorf("impir: subresult %d: %w", i+1, err)
		}
	}
	return out, nil
}
