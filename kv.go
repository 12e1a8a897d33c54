package impir

import (
	"context"
	"fmt"
	"strconv"

	"github.com/impir/impir/internal/keyword"
	"github.com/impir/impir/internal/metrics"
	"github.com/impir/impir/internal/obs"
)

// Keyword retrieval: the cuckoo-table layer lives in internal/keyword;
// the root package re-exports it here together with KVClient, the
// network client that privately looks keys up against any deployment,
// flat, sharded, or coded (OpenKV).

// KVManifest describes a keyword table's geometry and hashing: bucket
// count and capacity, the reserved stash tail, key/value field sizes,
// and the k candidate-hash seeds. It is public data — a client needs
// it to compute probe indices, and it reveals nothing about the stored
// keys. Manifests round-trip through JSON (ParseKVManifest /
// LoadKVManifest / KVManifest.JSON) for flags and config files.
type KVManifest = keyword.Manifest

// KVPair is one key→value entry for BuildKVDB.
type KVPair = keyword.Pair

// KVTableOptions tunes the cuckoo table builder; the zero value
// derives everything from the input pairs. See keyword.Options.
type KVTableOptions = keyword.Options

// KVStats is a snapshot of a KVClient's cumulative counters.
type KVStats = metrics.KVStats

// ErrNotFound reports a key absent from a keyword store. A lookup for
// an absent key issues exactly the same wire traffic as a hit — the
// servers cannot tell the difference; only the client learns it.
var ErrNotFound = keyword.ErrNotFound

// ErrKVFull reports a keyword table whose candidate buckets and stash
// are exhausted — for Put, pick a larger table at the next rebuild.
var ErrKVFull = keyword.ErrTableFull

// ParseKVManifest decodes and validates a JSON keyword-table manifest.
func ParseKVManifest(data []byte) (KVManifest, error) { return keyword.Parse(data) }

// LoadKVManifest reads and validates a JSON keyword-table manifest file.
func LoadKVManifest(path string) (KVManifest, error) { return keyword.Load(path) }

// BuildKVDB builds a cuckoo table from key→value pairs and serialises
// it into an ordinary PIR database: record i is bucket i. Load the
// database into every replica (or SplitDB it across shard cohorts) and
// hand clients the returned manifest; the build is deterministic in
// (pairs, options), so independently building servers agree
// byte-for-byte.
func BuildKVDB(pairs []KVPair, opts KVTableOptions) (*DB, KVManifest, error) {
	t, err := keyword.BuildTable(pairs, opts)
	if err != nil {
		return nil, KVManifest{}, err
	}
	db, err := t.DB()
	if err != nil {
		return nil, KVManifest{}, err
	}
	return db, t.Manifest, nil
}

// KVClient privately looks keys up against a keyword store. Every
// lookup retrieves the key's k candidate buckets plus the whole stash
// tail in ONE RetrieveBatch — a constant, padded batch shape that
// depends only on the manifest and the key count, never on the key
// bytes or on whether the key exists — so the servers learn neither
// the key nor hit/miss (and each PIR sub-query already hides which
// bucket was read). Put and Delete ride the wire-update path with
// cuckoo-aware bucket rewrites; like all updates they are public
// operator actions (the touched bucket index is visible, the key and
// value bytes inside the fixed-size record are not inferable from the
// index alone, but treat mutations as non-private).
//
// A KVClient may be shared by concurrent goroutines for lookups.
// Concurrent mutations of the same bucket race at read-modify-write
// granularity — serialise Put/Delete externally, as with any
// replicated-update deployment.
type KVClient struct {
	store Store
	m     KVManifest
	cells *kvCells
}

// newKVClient validates the dialed deployment's geometry against the
// table manifest: the record size must match the bucket encoding
// exactly, and the deployment must hold at least every bucket (a flat
// deployment addresses the 2^d index space its servers announce, so ≥,
// not ==).
func newKVClient(store Store, m KVManifest) (*KVClient, error) {
	if store.RecordSize() != m.RecordSize() {
		return nil, fmt.Errorf("impir: deployment serves %d-byte records, keyword manifest's bucket encoding needs %d",
			store.RecordSize(), m.RecordSize())
	}
	if store.NumRecords() < m.TotalBuckets() {
		return nil, fmt.Errorf("impir: deployment serves %d records, keyword manifest needs %d buckets",
			store.NumRecords(), m.TotalBuckets())
	}
	var reg *obs.Registry // detached cells unless the store is an observed *Client
	if c, ok := store.(*Client); ok {
		reg = c.cells.reg
	}
	return &KVClient{store: store, m: m, cells: newKVCells(reg)}, nil
}

// Manifest returns the table manifest the client probes with.
func (c *KVClient) Manifest() KVManifest { return c.m }

// Store returns the underlying index store the client probes — useful
// for its counters (the batch-code ones, say) without reopening the
// deployment.
func (c *KVClient) Store() Store { return c.store }

// ProbesPerKey returns the constant bucket count retrieved per key —
// the k candidates plus the stash tail.
func (c *KVClient) ProbesPerKey() int { return c.m.ProbesPerKey() }

// Get privately fetches the value stored for key. Absent keys return
// ErrNotFound — after issuing exactly the same probe batch a hit
// issues, so the outcome is invisible to the servers.
func (c *KVClient) Get(ctx context.Context, key []byte, opts ...CallOption) ([]byte, error) {
	vals, err := c.getBatch(ctx, [][]byte{key}, false, opts)
	if c.count(c.cells.gets, vals, err) != nil {
		return nil, err
	}
	if vals[0] == nil {
		return nil, ErrNotFound
	}
	return vals[0], nil
}

// GetBatch privately fetches several keys in one batched round trip
// per server: len(keys)·k candidate probes plus one shared stash scan,
// a shape fixed by the manifest and the key count alone. The returned
// slice aligns with keys; absent keys yield a nil entry (no error), so
// mixed hit/miss batches — the common case for credential checking —
// need no special-casing. A present key whose stored value is empty
// yields a non-nil empty slice, distinguishable from a miss. GetBatch
// with no keys returns an empty slice.
func (c *KVClient) GetBatch(ctx context.Context, keys [][]byte, opts ...CallOption) ([][]byte, error) {
	if len(keys) == 0 {
		return [][]byte{}, nil
	}
	vals, err := c.getBatch(ctx, keys, false, opts)
	if c.count(c.cells.batchGets, vals, err) != nil {
		return nil, err
	}
	c.cells.batchKeys.Add(uint64(len(keys)))
	return vals, nil
}

// count tallies a finished operation in op, a failure in errors, and
// each looked-up value as a hit (a miss when nil). It returns err.
func (c *KVClient) count(op *obs.Counter, vals [][]byte, err error) error {
	op.Inc()
	if err != nil {
		c.cells.errors.Inc()
	}
	for _, v := range vals {
		if v != nil {
			c.cells.hits.Inc()
		} else {
			c.cells.misses.Inc()
		}
	}
	return err
}

// getBatch runs the constant-shape probe: every key's k candidate
// buckets, then the stash tail once, all in one RetrieveBatch. With
// raw true it returns the probed bucket records themselves (Put and
// Delete rewrite them); otherwise the per-key values, nil for misses.
func (c *KVClient) getBatch(ctx context.Context, keys [][]byte, raw bool, opts []CallOption) ([][]byte, error) {
	k := c.m.Hashes()
	indices := make([]uint64, 0, len(keys)*k+int(c.m.StashBuckets))
	for i, key := range keys {
		if err := c.m.CheckKey(key); err != nil {
			return nil, fmt.Errorf("impir: key %d: %w", i, err)
		}
		indices = append(indices, c.m.Candidates(key)...)
	}
	indices = append(indices, c.m.StashIndices()...)
	// Label the underlying batch's root span with the probe shape; the
	// span itself opens when the store's call begins. Keys,
	// candidates, and hits never appear — only counts, which are a pure
	// function of the manifest and the key count.
	ctx = obs.ContextWithOpAttrs(ctx,
		obs.Attr{Key: "kv_keys", Value: strconv.Itoa(len(keys))},
		obs.Attr{Key: "kv_probes", Value: strconv.Itoa(len(indices))})
	recs, err := c.store.RetrieveBatch(ctx, indices, opts...)
	c.cells.probedBuckets.Add(uint64(len(indices)))
	if err != nil {
		return nil, err
	}
	if raw {
		return recs, nil
	}
	// Decode the shared stash records once, not once per key.
	stash := make([][]keyword.Slot, int(c.m.StashBuckets))
	for i, rec := range recs[len(keys)*k:] {
		slots, err := c.m.DecodeBucket(rec)
		if err != nil {
			return nil, fmt.Errorf("impir: corrupt stash record: %w", err)
		}
		stash[i] = slots
	}
	out := make([][]byte, len(keys))
	for i, key := range keys {
		val, found, err := c.findIn(recs[i*k:(i+1)*k], stash, key)
		if err != nil {
			return nil, err
		}
		if found {
			out[i] = val
		}
	}
	return out, nil
}

// findIn searches a key's candidate records, then the pre-decoded
// stash slots.
func (c *KVClient) findIn(cands [][]byte, stash [][]keyword.Slot, key []byte) ([]byte, bool, error) {
	for _, rec := range cands {
		if v, ok, err := c.m.FindInBucket(rec, key); err != nil {
			return nil, false, fmt.Errorf("impir: corrupt bucket record: %w", err)
		} else if ok {
			return v, true, nil
		}
	}
	for _, slots := range stash {
		for _, s := range slots {
			if s.Occupied && string(s.Key) == string(key) {
				return s.Value, true, nil
			}
		}
	}
	return nil, false, nil
}

// Put stores (or overwrites) key→value through the wire-update path:
// it privately probes the key's buckets with the standard
// constant-shape batch, rewrites the holding bucket (overwrite), or
// places the pair into the first candidate bucket with a free slot,
// falling back to the stash tail, and pushes the single rewritten
// bucket record to every replica. Returns ErrKVFull when candidates
// and stash are all occupied (Put does not run eviction walks online —
// rebuild the table with BuildKVDB for bulk growth). Like every
// update, the rewritten bucket index is visible to the servers; the
// probe that preceded it is not attributable to a key. Servers must be
// started with ServerConfig.AllowWireUpdates.
func (c *KVClient) Put(ctx context.Context, key, value []byte, opts ...CallOption) error {
	return c.count(c.cells.puts, nil, c.put(ctx, key, value, opts))
}

func (c *KVClient) put(ctx context.Context, key, value []byte, opts []CallOption) error {
	if err := c.m.CheckValue(value); err != nil {
		return fmt.Errorf("impir: %w", err)
	}
	recs, err := c.getBatch(ctx, [][]byte{key}, true, opts)
	if err != nil {
		return err
	}
	indices := c.m.ProbeIndices(key) // same order getBatch probed

	// Pass 1: the key may already live in one of its buckets — overwrite
	// in place, keeping the table canonical (one slot per key).
	type located struct {
		bucket uint64
		slots  []keyword.Slot
		slot   int
	}
	var free *located
	for p, rec := range recs {
		slots, err := c.m.DecodeBucket(rec)
		if err != nil {
			return fmt.Errorf("impir: corrupt bucket record %d: %w", indices[p], err)
		}
		for si, s := range slots {
			if s.Occupied && string(s.Key) == string(key) {
				slots[si].Value = value
				return c.rewrite(ctx, indices[p], slots, opts)
			}
			if !s.Occupied && free == nil {
				free = &located{bucket: indices[p], slots: slots, slot: si}
			}
		}
	}
	// Pass 2: first free slot in probe order (candidates before stash).
	if free == nil {
		return fmt.Errorf("impir: %w", ErrKVFull)
	}
	free.slots[free.slot] = keyword.Slot{Occupied: true, Key: append([]byte(nil), key...), Value: value}
	return c.rewrite(ctx, free.bucket, free.slots, opts)
}

// Delete removes key from the store through the wire-update path. The
// probe is the standard constant-shape batch; absent keys return
// ErrNotFound without any update.
func (c *KVClient) Delete(ctx context.Context, key []byte, opts ...CallOption) error {
	return c.count(c.cells.deletes, nil, c.delete(ctx, key, opts))
}

func (c *KVClient) delete(ctx context.Context, key []byte, opts []CallOption) error {
	recs, err := c.getBatch(ctx, [][]byte{key}, true, opts)
	if err != nil {
		return err
	}
	indices := c.m.ProbeIndices(key) // same order getBatch probed
	for p, rec := range recs {
		slots, err := c.m.DecodeBucket(rec)
		if err != nil {
			return fmt.Errorf("impir: corrupt bucket record %d: %w", indices[p], err)
		}
		for si, s := range slots {
			if s.Occupied && string(s.Key) == string(key) {
				slots[si] = keyword.Slot{}
				return c.rewrite(ctx, indices[p], slots, opts)
			}
		}
	}
	return ErrNotFound
}

// rewrite encodes one bucket's slots and pushes it to every replica of
// the owning shard.
func (c *KVClient) rewrite(ctx context.Context, bucket uint64, slots []keyword.Slot, opts []CallOption) error {
	rec, err := c.m.EncodeBucket(slots)
	if err != nil {
		return fmt.Errorf("impir: re-encode bucket %d: %w", bucket, err)
	}
	return c.store.Update(ctx, map[uint64][]byte{bucket: rec}, opts...)
}

// Stats snapshots the client-side keyword counters.
func (c *KVClient) Stats() KVStats { return c.cells.stats() }

// Close closes the underlying deployment client.
func (c *KVClient) Close() error { return c.store.Close() }
