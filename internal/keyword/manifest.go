// Package keyword lifts index-PIR to keyword PIR: private key→value
// retrieval over a k-ary cuckoo hash table serialised into an ordinary
// PIR database.
//
// Index-PIR answers "record i" — but realistic workloads (credential
// checking, blocklists, CT auditing) ask "the value for key K". The
// usual bridge ships every client a plaintext key→index directory,
// which scales linearly with the corpus and itself leaks the corpus
// contents. Keyword PIR removes the directory: the builder places each
// key/value pair into one of k seeded hash candidate buckets (cuckoo
// eviction resolves collisions; pairs that cannot be placed spill into
// a small stash of reserved tail buckets), every bucket becomes one
// fixed-size PIR record, and the client privately retrieves ALL k
// candidate buckets of a key — plus the stash — in one constant-shape
// batch. The servers see k+S ordinary PIR sub-queries whether the key
// exists or not, so the access pattern leaks neither the key nor
// hit/miss.
//
// The package comprises the table Manifest (hashing geometry + JSON
// round-trip for flags and config files, mirroring internal/cluster),
// a canonical bucket record codec, and the deterministic seeded table
// builder. Because the table serialises into a database.DB, every
// engine (pim/cpu/gpu), the scheduler's coalescing, and cluster
// sharding work unchanged underneath; the network client driving the
// probes — impir.KVClient — lives in the root package on top of
// impir.Client.
package keyword

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

// Sentinel errors shared by the builder and the root KVClient.
var (
	// ErrNotFound reports a key absent from the table. Lookups for
	// absent keys issue exactly the same wire traffic as hits.
	ErrNotFound = errors.New("keyword: key not found")
	// ErrDuplicateKey reports the same key appearing twice in a build
	// or an insert of an already-present key where overwrite is not
	// intended.
	ErrDuplicateKey = errors.New("keyword: duplicate key")
	// ErrTableFull reports a table whose candidate buckets and stash
	// are all occupied — the load factor limit.
	ErrTableFull = errors.New("keyword: table full (candidate buckets and stash exhausted)")
	// ErrKeyTooLong reports a key exceeding the manifest's KeySize.
	ErrKeyTooLong = errors.New("keyword: key longer than configured key size")
	// ErrValueTooLong reports a value exceeding the manifest's
	// ValueSize.
	ErrValueTooLong = errors.New("keyword: value longer than configured value size")
)

// Hard caps keeping adversarial manifests from demanding absurd
// allocations (the decoder and builder size buffers from these fields).
const (
	// MaxKeySize bounds the per-slot key field.
	MaxKeySize = 4096
	// MaxValueSize bounds the per-slot value field.
	MaxValueSize = 65535
	// MaxBucketCapacity bounds slots per bucket.
	MaxBucketCapacity = 64
	// MaxHashes bounds the candidate-bucket count k.
	MaxHashes = 8
	// MinHashes is the smallest workable k (one hash has no eviction
	// alternative and collapses to a plain hash table).
	MinHashes = 2
	// MaxStashBuckets bounds the stash tail. The stash is probed in
	// full on EVERY lookup, so its size directly prices the probe
	// batch; a manifest demanding a huge stash is either misbuilt or
	// adversarial (clients size per-lookup allocations from it).
	MaxStashBuckets = 256
	// MaxBuckets bounds NumBuckets + StashBuckets.
	MaxBuckets = 1 << 40
	// MaxRecordSize bounds one bucket's serialised size (one PIR
	// record).
	MaxRecordSize = 1 << 20
)

// slotOverhead is the per-slot metadata: 1 occupancy flag byte, 2-byte
// key length, 2-byte value length.
const slotOverhead = 5

// Manifest describes a keyword table's geometry and hashing so a
// client can compute any key's candidate buckets without seeing the
// table: bucket layout, key/value field sizes, and the k hash seeds.
// Manifests round-trip through JSON (Parse / Load / Manifest.JSON) for
// command-line flags and config files.
type Manifest struct {
	// NumBuckets is the number of hash-addressable buckets (records
	// 0..NumBuckets-1 of the serialised database).
	NumBuckets uint64 `json:"num_buckets"`
	// StashBuckets is the number of reserved tail buckets (records
	// NumBuckets..NumBuckets+StashBuckets-1) holding pairs that lost
	// their cuckoo eviction walks. Clients probe the whole stash on
	// every lookup, so the stash must stay small.
	StashBuckets uint64 `json:"stash_buckets"`
	// BucketCapacity is the number of key/value slots per bucket.
	BucketCapacity int `json:"bucket_capacity"`
	// KeySize is the fixed per-slot key field size; keys up to this
	// length are stored with their exact length.
	KeySize int `json:"key_size"`
	// ValueSize is the fixed per-slot value field size.
	ValueSize int `json:"value_size"`
	// HashSeeds are the k candidate-hash seeds, in probe order.
	HashSeeds []uint64 `json:"hash_seeds"`
}

// Validate checks the geometry: positive bucket count and capacity
// within caps, key/value sizes within caps, 2..8 distinct hash seeds,
// and a per-bucket record size within MaxRecordSize.
func (m Manifest) Validate() error {
	if m.NumBuckets < 1 {
		return fmt.Errorf("keyword: bucket count %d must be ≥ 1", m.NumBuckets)
	}
	if m.NumBuckets > MaxBuckets || m.NumBuckets+m.StashBuckets > MaxBuckets {
		return fmt.Errorf("keyword: %d+%d buckets exceeds the cap of %d",
			m.NumBuckets, m.StashBuckets, uint64(MaxBuckets))
	}
	if m.StashBuckets > MaxStashBuckets {
		return fmt.Errorf("keyword: %d stash buckets exceeds the cap of %d (the whole stash is probed on every lookup)",
			m.StashBuckets, MaxStashBuckets)
	}
	if m.BucketCapacity < 1 || m.BucketCapacity > MaxBucketCapacity {
		return fmt.Errorf("keyword: bucket capacity %d outside [1,%d]", m.BucketCapacity, MaxBucketCapacity)
	}
	if m.KeySize < 1 || m.KeySize > MaxKeySize {
		return fmt.Errorf("keyword: key size %d outside [1,%d]", m.KeySize, MaxKeySize)
	}
	if m.ValueSize < 1 || m.ValueSize > MaxValueSize {
		return fmt.Errorf("keyword: value size %d outside [1,%d]", m.ValueSize, MaxValueSize)
	}
	if len(m.HashSeeds) < MinHashes || len(m.HashSeeds) > MaxHashes {
		return fmt.Errorf("keyword: %d hash seeds outside [%d,%d]", len(m.HashSeeds), MinHashes, MaxHashes)
	}
	seen := make(map[uint64]struct{}, len(m.HashSeeds))
	for i, s := range m.HashSeeds {
		if _, dup := seen[s]; dup {
			return fmt.Errorf("keyword: hash seed %d repeats (seeds must be distinct)", i)
		}
		seen[s] = struct{}{}
	}
	if rs := m.RecordSize(); rs > MaxRecordSize {
		return fmt.Errorf("keyword: bucket record size %d exceeds the cap of %d", rs, MaxRecordSize)
	}
	return nil
}

// Hashes returns k, the candidate buckets probed per key.
func (m Manifest) Hashes() int { return len(m.HashSeeds) }

// TotalBuckets returns the serialised record count: hash buckets plus
// the stash tail.
func (m Manifest) TotalBuckets() uint64 { return m.NumBuckets + m.StashBuckets }

// SlotSize returns one key/value slot's serialised size.
func (m Manifest) SlotSize() int { return slotOverhead + m.KeySize + m.ValueSize }

// RecordSize returns one bucket's serialised size — the record size of
// the PIR database the table serialises into: the slots plus zero
// padding up to 8-byte alignment (the engines' dpXOR scans operate on
// 64-bit words).
func (m Manifest) RecordSize() int {
	raw := m.BucketCapacity * m.SlotSize()
	return (raw + 7) &^ 7
}

// ProbesPerKey returns the constant number of buckets a client
// retrieves per key lookup: the k candidates plus the whole stash.
// This count depends only on the manifest — never on the key or on
// whether it is present — which is the keyword layer's privacy
// argument.
func (m Manifest) ProbesPerKey() int { return m.Hashes() + int(m.StashBuckets) }

// bucketHash maps (seed, key) to a bucket index in [0, NumBuckets):
// the first 8 bytes of SHA-256(le64(seed) ‖ key). Deterministic across
// builds and platforms, and keyed only by public manifest data — the
// client computes the same candidates without the table.
func (m Manifest) bucketHash(seed uint64, key []byte) uint64 {
	h := sha256.New()
	var s [8]byte
	binary.LittleEndian.PutUint64(s[:], seed)
	h.Write(s[:])
	h.Write(key)
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return binary.LittleEndian.Uint64(sum[:8]) % m.NumBuckets
}

// Candidates returns the key's k candidate bucket indices in probe
// order. Distinct seeds can still collide onto one bucket for a given
// key; callers treat the list positionally, not as a set, so the probe
// count stays constant.
func (m Manifest) Candidates(key []byte) []uint64 {
	out := make([]uint64, len(m.HashSeeds))
	for i, seed := range m.HashSeeds {
		out[i] = m.bucketHash(seed, key)
	}
	return out
}

// StashIndices returns the reserved tail bucket indices, in order.
func (m Manifest) StashIndices() []uint64 {
	out := make([]uint64, m.StashBuckets)
	for i := range out {
		out[i] = m.NumBuckets + uint64(i)
	}
	return out
}

// ProbeIndices returns the full constant-shape probe list for one key:
// the k candidates followed by the stash tail. len == ProbesPerKey()
// for every key.
func (m Manifest) ProbeIndices(key []byte) []uint64 {
	return append(m.Candidates(key), m.StashIndices()...)
}

// CheckKey validates a key against the manifest's field size.
func (m Manifest) CheckKey(key []byte) error {
	if len(key) == 0 {
		return errors.New("keyword: empty key")
	}
	if len(key) > m.KeySize {
		return fmt.Errorf("%w: %d bytes, key size is %d", ErrKeyTooLong, len(key), m.KeySize)
	}
	return nil
}

// CheckValue validates a value against the manifest's field size.
func (m Manifest) CheckValue(value []byte) error {
	if len(value) > m.ValueSize {
		return fmt.Errorf("%w: %d bytes, value size is %d", ErrValueTooLong, len(value), m.ValueSize)
	}
	return nil
}

// Parse decodes and validates a JSON manifest. A field the manifest does
// not define is an error, not silently dropped.
func Parse(data []byte) (Manifest, error) {
	var m Manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return Manifest{}, fmt.Errorf("keyword: parse manifest: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Manifest{}, errors.New("keyword: parse manifest: data after the manifest")
	}
	return m, m.Validate()
}

// Load reads and validates a JSON manifest file (the -kv flags).
func Load(path string) (Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Manifest{}, fmt.Errorf("keyword: load manifest: %w", err)
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
