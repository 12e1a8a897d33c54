// Package batchcode lays a database out as a probabilistic batch code
// so one multi-record batch costs one sub-query per bucket instead of
// one full scan per record.
//
// IM-PIR's per-query cost is a linear scan of the whole (shard)
// database, so a B-record RetrieveBatch costs B scans — keyword PIR's
// constant 7-probe lookups pay ~7× the single-record price. A
// probabilistic batch code (Angel et al.'s PBC construction, as used by
// the low-complexity multi-message PIR scheme this repo reproduces)
// replicates every record into r of C bucketised subdatabases chosen by
// seeded hashing. A B-record batch is then served by matching each
// requested record to ONE bucket holding a copy (a bipartite matching)
// and issuing exactly one sub-query per bucket: real where a record was
// assigned, a well-formed dummy everywhere else, plus a constant tail
// of overflow slots absorbing the matching residue. A placed batch's
// query vector — C+overflow sub-queries, fixed sizes, fixed order — is
// a function of the manifest alone. A batch the planner cannot place
// (more than MaxBatch records, or a residue longer than the overflow
// tail) is not codeable, and the client falls back to the uncoded
// shape, one sub-query per record. Whether that happens depends on the
// demand, not only on B: with 8 buckets, 2 overflow slots and MaxBatch
// 16, 11 or more distinct records always fall back, and fewer fall back
// for some index sets. ROADMAP's constant-shape item removes the
// fallback.
//
// The package comprises the code Manifest (geometry + seeds with JSON
// round-trip for deployment files, mirroring internal/cluster and
// internal/keyword), the deterministic Layout (bucket placement table +
// database encoder) and the per-batch Planner (greedy matching with
// augmenting-path repair and a constant overflow tail). The network
// client driving coded batches — impir.Client, whose code step this
// package is — lives in the root package; this package deliberately
// stays below it in the dependency order so planners and benchmarks can
// reason about codes without a network stack.
package batchcode

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// Hard caps keeping adversarial manifests from demanding absurd
// allocations: a client builds its placement table (NumRecords × Choices
// entries) straight from these fields, like the keyword and cluster
// manifest caps.
const (
	// MaxRecords bounds the logical record count (the placement table
	// costs 8 bytes per record-choice pair).
	MaxRecords = 1 << 26
	// MaxBuckets bounds the bucket count C; every batch issues one
	// sub-query per bucket, so C prices the constant batch shape.
	MaxBuckets = 4096
	// MinChoices / MaxChoices bound the replication factor r. One
	// choice has no matching freedom and collapses to plain sharding.
	MinChoices = 2
	MaxChoices = 4
	// MaxOverflowSlots bounds the constant overflow tail.
	MaxOverflowSlots = 8
	// MaxDeclaredBatch bounds the declared batch cap.
	MaxDeclaredBatch = 4096
	// MaxRecordSize bounds one record (mirrors keyword.MaxRecordSize).
	MaxRecordSize = 1 << 20
	// MaxBucketRows bounds a bucket's padded row count.
	MaxBucketRows = 1 << 32
)

// Manifest describes a batch code's geometry and hashing so a client
// can replay the layout without the database: the logical record space,
// the bucket grid, the replication choices, and the hash seeds.
// Manifests round-trip through JSON (Parse / Load / Manifest.JSON) for
// deployment files, like keyword.Manifest.
type Manifest struct {
	// NumRecords is the LOGICAL record count N — the index space the
	// application sees. The coded database is larger: TotalRows() rows.
	NumRecords uint64 `json:"num_records"`
	// RecordSize is the record size in bytes (unchanged by coding).
	RecordSize int `json:"record_size"`
	// Buckets is the subdatabase count C. Bucket b occupies coded rows
	// [b·BucketRows, (b+1)·BucketRows).
	Buckets int `json:"buckets"`
	// Choices is the replication factor r: every record is stored in r
	// distinct buckets chosen by seeded hashing.
	Choices int `json:"choices"`
	// BucketRows is the uniform padded row count per bucket. It must be
	// at least the heaviest bucket's load; NewLayout verifies this by
	// replaying the hashing.
	BucketRows uint64 `json:"bucket_rows"`
	// OverflowSlots is the constant number of extra full-range
	// sub-queries appended to every coded batch. Real when the matching
	// could not place a record in its buckets, dummy otherwise — always
	// present, so shape does not depend on matching luck.
	OverflowSlots int `json:"overflow_slots"`
	// MaxBatch is the declared batch-size cap the constant shape covers.
	// Larger batches fall back to the uncoded path (a public event:
	// the cap itself is public).
	MaxBatch int `json:"max_batch"`
	// Seeds are the r candidate-hash seeds, in choice order, distinct.
	Seeds []uint64 `json:"seeds"`
}

// Validate checks the geometry against the allocation caps: positive
// logical record count, record size, bucket grid, 2..4 distinct seeds
// matching Choices, and a bucket count large enough to offer Choices
// distinct candidates.
func (m Manifest) Validate() error {
	if m.NumRecords < 1 {
		return fmt.Errorf("batchcode: record count %d must be ≥ 1", m.NumRecords)
	}
	if m.NumRecords > MaxRecords {
		return fmt.Errorf("batchcode: %d records exceeds the cap of %d", m.NumRecords, MaxRecords)
	}
	if m.RecordSize < 1 || m.RecordSize > MaxRecordSize {
		return fmt.Errorf("batchcode: record size %d outside [1, %d]", m.RecordSize, MaxRecordSize)
	}
	if m.Choices < MinChoices || m.Choices > MaxChoices {
		return fmt.Errorf("batchcode: %d choices outside [%d, %d]", m.Choices, MinChoices, MaxChoices)
	}
	if m.Buckets < m.Choices || m.Buckets > MaxBuckets {
		return fmt.Errorf("batchcode: %d buckets outside [%d, %d]", m.Buckets, m.Choices, MaxBuckets)
	}
	if m.BucketRows < 1 || m.BucketRows > MaxBucketRows {
		return fmt.Errorf("batchcode: bucket rows %d outside [1, %d]", m.BucketRows, MaxBucketRows)
	}
	if m.OverflowSlots < 0 || m.OverflowSlots > MaxOverflowSlots {
		return fmt.Errorf("batchcode: %d overflow slots outside [0, %d]", m.OverflowSlots, MaxOverflowSlots)
	}
	if m.MaxBatch < 1 || m.MaxBatch > MaxDeclaredBatch {
		return fmt.Errorf("batchcode: batch cap %d outside [1, %d]", m.MaxBatch, MaxDeclaredBatch)
	}
	if len(m.Seeds) != m.Choices {
		return fmt.Errorf("batchcode: %d seeds for %d choices", len(m.Seeds), m.Choices)
	}
	for i, s := range m.Seeds {
		for j := 0; j < i; j++ {
			if m.Seeds[j] == s {
				return fmt.Errorf("batchcode: seeds %d and %d are both %d; seeds must be distinct", j, i, s)
			}
		}
	}
	return nil
}

// TotalRows returns the coded database's physical row count:
// Buckets × BucketRows. Servers store and scan coded rows; only the
// client maps logical indices onto them.
func (m Manifest) TotalRows() uint64 { return uint64(m.Buckets) * m.BucketRows }

// QueriesPerBatch returns the constant sub-query count of every coded
// batch: one per bucket plus the overflow tail. This count depends only
// on the manifest — never on the batch's size or content — which is the
// coded layer's privacy argument.
func (m Manifest) QueriesPerBatch() int { return m.Buckets + m.OverflowSlots }

// Candidates returns record i's r candidate buckets in choice order.
// Unlike keyword hashing, candidates are forced DISTINCT (a counter is
// folded into the hash until the collision clears) so each record
// really has r independent placements for the matcher to use.
func (m Manifest) Candidates(i uint64) []int {
	out := make([]int, m.Choices)
	for j, seed := range m.Seeds {
		ctr := uint64(0)
	probe:
		for {
			b := int(bucketHash(seed, i, ctr) % uint64(m.Buckets))
			for _, prev := range out[:j] {
				if prev == b {
					ctr++
					continue probe
				}
			}
			out[j] = b
			break
		}
	}
	return out
}

// bucketHash maps (seed, index, counter) to a uniform 64-bit value: the
// first 8 bytes of SHA-256(le64(seed) ‖ le64(index) ‖ le64(counter)).
// Deterministic across builds and platforms, and keyed only by public
// manifest data — the same idiom as keyword.Manifest's bucket hash.
func bucketHash(seed, index, ctr uint64) uint64 {
	h := sha256.New()
	var buf [24]byte
	binary.LittleEndian.PutUint64(buf[0:8], seed)
	binary.LittleEndian.PutUint64(buf[8:16], index)
	binary.LittleEndian.PutUint64(buf[16:24], ctr)
	h.Write(buf[:])
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return binary.LittleEndian.Uint64(sum[:8])
}

// Parse decodes and validates a JSON code manifest. A field the manifest
// does not define is an error, not silently dropped.
func Parse(data []byte) (Manifest, error) {
	var m Manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return Manifest{}, fmt.Errorf("batchcode: parse manifest: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Manifest{}, errors.New("batchcode: parse manifest: data after the manifest")
	}
	return m, m.Validate()
}

// Load reads and validates a JSON code manifest file.
func Load(path string) (Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Manifest{}, fmt.Errorf("batchcode: load manifest: %w", err)
	}
	return Parse(data)
}

// JSON encodes the manifest for config files; Parse round-trips it.
func (m Manifest) JSON() ([]byte, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return json.MarshalIndent(m, "", "  ")
}

// Derive sizes a code for a database: it replays the hashing for the
// given grid, measures the heaviest bucket, and returns a manifest with
// BucketRows set to that load (the tightest uniform padding that fits).
// Seeds are derived deterministically from seed.
func Derive(numRecords uint64, recordSize, buckets, choices, overflowSlots, maxBatch int, seed uint64) (Manifest, error) {
	m := Manifest{
		NumRecords:    numRecords,
		RecordSize:    recordSize,
		Buckets:       buckets,
		Choices:       choices,
		BucketRows:    1, // placeholder; sized below
		OverflowSlots: overflowSlots,
		MaxBatch:      maxBatch,
		Seeds:         make([]uint64, choices),
	}
	for j := range m.Seeds {
		// splitmix64-style derivation keeps the seeds distinct for any
		// starting seed.
		seed += 0x9e3779b97f4a7c15
		z := seed
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		m.Seeds[j] = z ^ (z >> 31)
	}
	if err := m.Validate(); err != nil {
		return Manifest{}, err
	}
	load := make([]uint64, buckets)
	var heaviest uint64
	for i := uint64(0); i < numRecords; i++ {
		for _, b := range m.Candidates(i) {
			load[b]++
			if load[b] > heaviest {
				heaviest = load[b]
			}
		}
	}
	m.BucketRows = heaviest
	return m, m.Validate()
}
