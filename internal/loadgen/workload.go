package loadgen

import (
	"context"
	"errors"
	"fmt"

	"github.com/impir/impir"
	"github.com/impir/impir/internal/metrics"
)

// Workload names what each simulated client does per arrival.
type Workload string

const (
	// WorkloadIndex issues index retrievals (Retrieve, or RetrieveBatch
	// when the batch size exceeds 1) over uniformly random records.
	WorkloadIndex Workload = "index"
	// WorkloadKeyword issues keyword lookups through the KV view: a mix
	// of hits (drawn from the known corpus) and misses, which are
	// byte-identical on the wire by construction.
	WorkloadKeyword Workload = "keyword"
	// WorkloadMixed alternates index and keyword operations per arrival.
	WorkloadMixed Workload = "mixed"
	// WorkloadBatch issues multi-record RetrieveBatch operations every
	// arrival — the workload the batch-code layer exists for. The batch
	// size defaults to defaultBatchSize when -batch leaves it below 2,
	// so the workload always exercises the batched path.
	WorkloadBatch Workload = "batch"
)

// defaultBatchSize is the batch the batch workload issues when the
// configured batch size would degenerate to single retrievals.
const defaultBatchSize = 8

// ParseWorkload converts a -workload flag value.
func ParseWorkload(s string) (Workload, error) {
	switch Workload(s) {
	case WorkloadIndex, WorkloadKeyword, WorkloadMixed, WorkloadBatch:
		return Workload(s), nil
	default:
		return "", fmt.Errorf("loadgen: unknown workload %q (want index, keyword, mixed, or batch)", s)
	}
}

// keywordHitRatio is the fraction of keyword lookups that target a
// stored key; the rest are deliberate misses (identical wire shape).
const keywordHitRatio = 0.75

// Target is the system under test.
type Target struct {
	// Store is the index store the load is driven into.
	Store impir.Store
	// KV is the keyword view over the same store; required for the
	// keyword and mixed workloads.
	KV *impir.KVClient
	// Keys is the stored-key corpus keyword hits are drawn from.
	Keys [][]byte
	// PerClient optionally gives the simulated population its own
	// connection pool: simulated client i issues through
	// PerClient[i%len(PerClient)]. One wire connection carries one
	// request at a time, so a single shared Store caps the server-side
	// concurrency at one per server — real populations (and real
	// overload) need parallel connections. When empty, every client
	// shares Store.
	PerClient []impir.Store
	// PerClientKV mirrors PerClient for the keyword view.
	PerClientKV []*impir.KVClient
}

func (t Target) validate(w Workload) error {
	if t.Store == nil && len(t.PerClient) == 0 {
		return errors.New("loadgen: target has no store")
	}
	if w == WorkloadKeyword || w == WorkloadMixed {
		if t.KV == nil && len(t.PerClientKV) == 0 {
			return fmt.Errorf("loadgen: the %s workload needs a keyword view (Target.KV)", w)
		}
		if len(t.Keys) == 0 {
			return fmt.Errorf("loadgen: the %s workload needs a stored-key corpus (Target.Keys)", w)
		}
	}
	return nil
}

// storeFor routes a simulated client to its connection pool slot.
func (t Target) storeFor(client int) impir.Store {
	if len(t.PerClient) > 0 {
		return t.PerClient[client%len(t.PerClient)]
	}
	return t.Store
}

// kvFor mirrors storeFor for the keyword view.
func (t Target) kvFor(client int) *impir.KVClient {
	if len(t.PerClientKV) > 0 {
		return t.PerClientKV[client%len(t.PerClientKV)]
	}
	return t.KV
}

// geometry returns a store to read record geometry from.
func (t Target) geometry() impir.Store {
	if t.Store != nil {
		return t.Store
	}
	return t.PerClient[0]
}

// storeStats sums the client-side counters over the whole pool.
func (t Target) storeStats() metrics.StoreStats {
	if len(t.PerClient) == 0 {
		return t.Store.Stats()
	}
	var sum metrics.StoreStats
	for _, s := range t.PerClient {
		addStoreStats(&sum, s.Stats())
	}
	return sum
}

// kvStats sums the keyword-view counters over the whole pool; false
// when the target has no keyword view.
func (t Target) kvStats() (metrics.KVStats, bool) {
	if len(t.PerClientKV) == 0 {
		if t.KV == nil {
			return metrics.KVStats{}, false
		}
		return t.KV.Stats(), true
	}
	var sum metrics.KVStats
	for _, kv := range t.PerClientKV {
		st := kv.Stats()
		sum.Gets += st.Gets
		sum.BatchGets += st.BatchGets
		sum.BatchKeys += st.BatchKeys
		sum.Hits += st.Hits
		sum.Misses += st.Misses
		sum.Puts += st.Puts
		sum.Deletes += st.Deletes
		sum.ProbedBuckets += st.ProbedBuckets
		sum.Errors += st.Errors
	}
	return sum, true
}

// addStoreStats accumulates src into dst, shards elementwise.
func addStoreStats(dst *metrics.StoreStats, src metrics.StoreStats) {
	dst.Retrievals += src.Retrievals
	dst.BatchRetrievals += src.BatchRetrievals
	dst.Updates += src.Updates
	dst.Errors += src.Errors
	dst.Busy += src.Busy
	dst.Retries += src.Retries
	dst.Hedges += src.Hedges
	dst.HedgeWins += src.HedgeWins
	dst.CodedBatches += src.CodedBatches
	dst.CodedQueries += src.CodedQueries
	dst.CodedDummies += src.CodedDummies
	dst.CodeFallbacks += src.CodeFallbacks
	for i, sh := range src.Shards {
		if i >= len(dst.Shards) {
			dst.Shards = append(dst.Shards, sh)
			continue
		}
		d := &dst.Shards[i]
		d.Queries += sh.Queries
		d.Batches += sh.Batches
		d.BatchQueries += sh.BatchQueries
		d.UpdateRows += sh.UpdateRows
		d.Errors += sh.Errors
		d.TotalTime += sh.TotalTime
	}
}

// splitmix64 is the per-arrival deterministic RNG: cheap, allocation
// free, and stateless — arrival (client, seq) always draws the same
// operation for a given seed, so a run is reproducible however the
// worker pool interleaves.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// issuer issues one logical operation for an arrival; it reports the
// operation's error (nil on success — an intended keyword miss that
// comes back ErrNotFound is a success).
type issuer func(ctx context.Context, client int, seq uint64) error

// newIssuer builds the per-arrival operation for the configured
// workload over the target.
func newIssuer(t Target, w Workload, batch int, seed int64) (issuer, error) {
	if err := t.validate(w); err != nil {
		return nil, err
	}
	if batch < 1 {
		batch = 1
	}
	if w == WorkloadBatch && batch < 2 {
		batch = defaultBatchSize
	}
	numRecords := t.geometry().NumRecords()
	if numRecords == 0 {
		return nil, errors.New("loadgen: target store reports zero records")
	}

	index := func(ctx context.Context, client int, seq uint64) error {
		store := t.storeFor(client)
		base := splitmix64(uint64(seed)<<32 ^ uint64(client)<<40 ^ seq)
		if batch == 1 {
			_, err := store.Retrieve(ctx, base%numRecords)
			return err
		}
		indices := make([]uint64, batch)
		for i := range indices {
			indices[i] = splitmix64(base+uint64(i)) % numRecords
		}
		_, err := store.RetrieveBatch(ctx, indices)
		return err
	}

	keyword := func(ctx context.Context, client int, seq uint64) error {
		kv := t.kvFor(client)
		base := splitmix64(uint64(seed)<<32 ^ uint64(client)<<40 ^ seq ^ 0x6b77) // keyword ops draw from their own stream
		key := drawKey(t.Keys, base)
		if batch == 1 {
			_, err := kv.Get(ctx, key)
			if errors.Is(err, impir.ErrNotFound) {
				err = nil
			}
			return err
		}
		keys := make([][]byte, batch)
		for i := range keys {
			keys[i] = drawKey(t.Keys, splitmix64(base+uint64(i)))
		}
		// Misses come back as nil entries from GetBatch, not as errors.
		_, err := kv.GetBatch(ctx, keys)
		return err
	}

	batched := func(ctx context.Context, client int, seq uint64) error {
		store := t.storeFor(client)
		base := splitmix64(uint64(seed)<<32 ^ uint64(client)<<40 ^ seq ^ 0xba7c) // its own draw stream
		indices := make([]uint64, batch)
		for i := range indices {
			indices[i] = splitmix64(base+uint64(i)) % numRecords
		}
		_, err := store.RetrieveBatch(ctx, indices)
		return err
	}

	switch w {
	case WorkloadIndex:
		return index, nil
	case WorkloadBatch:
		return batched, nil
	case WorkloadKeyword:
		return keyword, nil
	case WorkloadMixed:
		return func(ctx context.Context, client int, seq uint64) error {
			if seq%2 == 0 {
				return index(ctx, client, seq)
			}
			return keyword(ctx, client, seq)
		}, nil
	default:
		return nil, fmt.Errorf("loadgen: unknown workload %q", w)
	}
}

// drawKey picks a stored key with probability keywordHitRatio, a
// deliberately absent one otherwise. Miss keys are random bytes of a
// stored key's length — they must fit the table's configured key size,
// and at that length a random draw is absent with overwhelming
// probability (a freak collision just counts as a hit).
func drawKey(keys [][]byte, r uint64) []byte {
	if float64(r%1000)/1000 < keywordHitRatio {
		return keys[splitmix64(r)%uint64(len(keys))]
	}
	n := len(keys[splitmix64(r+1)%uint64(len(keys))])
	key := make([]byte, n)
	var x uint64
	for i := range key {
		if i%8 == 0 {
			x = splitmix64(r + uint64(i))
		}
		key[i] = byte(x >> (8 * (i % 8)))
	}
	return key
}
