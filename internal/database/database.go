// Package database defines the PIR database representation shared by all
// server engines, plus deterministic workload generators modelled on the
// paper's evaluation databases (§5.2): fixed-size 32-byte records holding
// SHA-256 digests, as used by Certificate Transparency auditing and
// compromised-credential checking services.
//
// A database holds exactly its N records. Clients address the
// power-of-two index space of 2^Domain() records, so an index in
// [N, 2^Domain()) names a zero record: the padded form PadToPowerOfTwo
// builds, which Digest hashes without allocating. Engines scan only the N
// records and ignore selector bits beyond them.
package database

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math/bits"
)

// RecordSizeHash is the record size used throughout the paper's
// evaluation: one SHA-256 digest per record.
const RecordSizeHash = 32

// DB is an immutable-by-convention PIR database: numRecords records of
// recordSize bytes each, stored contiguously. In multi-server PIR the
// same DB is replicated byte-for-byte on every server; Digest lets
// deployments verify replicas match.
type DB struct {
	recordSize int
	numRecords int
	data       []byte
}

// New returns a zero-filled database.
func New(numRecords, recordSize int) (*DB, error) {
	if numRecords < 1 {
		return nil, fmt.Errorf("database: numRecords %d must be ≥ 1", numRecords)
	}
	if recordSize < 1 {
		return nil, fmt.Errorf("database: recordSize %d must be ≥ 1", recordSize)
	}
	return &DB{
		recordSize: recordSize,
		numRecords: numRecords,
		data:       make([]byte, numRecords*recordSize),
	}, nil
}

// FromRecords builds a database from equally sized records.
func FromRecords(records [][]byte) (*DB, error) {
	if len(records) == 0 {
		return nil, errors.New("database: no records")
	}
	size := len(records[0])
	db, err := New(len(records), size)
	if err != nil {
		return nil, err
	}
	for i, rec := range records {
		if len(rec) != size {
			return nil, fmt.Errorf("database: record %d has %d bytes, want %d", i, len(rec), size)
		}
		copy(db.data[i*size:], rec)
	}
	return db, nil
}

// FromFlat wraps an existing flat buffer as a database without copying.
// The caller must not mutate data afterwards.
func FromFlat(data []byte, recordSize int) (*DB, error) {
	if recordSize < 1 {
		return nil, fmt.Errorf("database: recordSize %d must be ≥ 1", recordSize)
	}
	if len(data) == 0 || len(data)%recordSize != 0 {
		return nil, fmt.Errorf("database: %d bytes is not a positive multiple of record size %d",
			len(data), recordSize)
	}
	return &DB{
		recordSize: recordSize,
		numRecords: len(data) / recordSize,
		data:       data,
	}, nil
}

// NumRecords returns the number of records (N in the paper's notation).
func (d *DB) NumRecords() int { return d.numRecords }

// RecordSize returns the record size in bytes (the paper's L, in bytes).
func (d *DB) RecordSize() int { return d.recordSize }

// SizeBytes returns the total database size.
func (d *DB) SizeBytes() int64 { return int64(d.numRecords) * int64(d.recordSize) }

// Record returns a read-only view of record i. The returned slice aliases
// the database storage.
func (d *DB) Record(i int) []byte {
	if i < 0 || i >= d.numRecords {
		panic(fmt.Sprintf("database: record %d out of range [0,%d)", i, d.numRecords))
	}
	return d.data[i*d.recordSize : (i+1)*d.recordSize : (i+1)*d.recordSize]
}

// SetRecord overwrites record i. Intended for construction and for the
// bulk-update windows described in §3.3.
func (d *DB) SetRecord(i int, rec []byte) error {
	if i < 0 || i >= d.numRecords {
		return fmt.Errorf("database: record %d out of range [0,%d)", i, d.numRecords)
	}
	if len(rec) != d.recordSize {
		return fmt.Errorf("database: record has %d bytes, want %d", len(rec), d.recordSize)
	}
	copy(d.data[i*d.recordSize:], rec)
	return nil
}

// Data returns the flat backing buffer (records concatenated in order).
// Engines use this to shard the DB across DPUs; callers must treat it as
// read-only.
func (d *DB) Data() []byte { return d.data }

// Domain returns the smallest tree depth whose index space covers every
// record: ⌈log₂(numRecords)⌉.
func (d *DB) Domain() int {
	return bits.Len(uint(d.numRecords - 1))
}

// IsPowerOfTwo reports whether the record count is a power of two, so
// that the database is its own padded form.
func (d *DB) IsPowerOfTwo() bool {
	return d.numRecords&(d.numRecords-1) == 0
}

// PadToPowerOfTwo returns d itself when the record count is already a
// power of two, or a copy extended with zero records up to the next power
// of two: the database as the 2^Domain() index space a client queries
// sees it. Servers never build it; tests and benchmarks use it as the
// oracle an unpadded scan must match.
func (d *DB) PadToPowerOfTwo() *DB {
	if d.IsPowerOfTwo() {
		return d
	}
	padded := 1 << uint(d.Domain())
	data := make([]byte, padded*d.recordSize)
	copy(data, d.data)
	return &DB{recordSize: d.recordSize, numRecords: padded, data: data}
}

// Clone returns a deep copy.
func (d *DB) Clone() *DB {
	data := make([]byte, len(d.data))
	copy(data, d.data)
	return &DB{recordSize: d.recordSize, numRecords: d.numRecords, data: data}
}

// CheckUpdates validates a §3.3 update set against the database's
// geometry: a non-empty map from record index to exactly RecordSize
// bytes.
func (d *DB) CheckUpdates(updates map[uint64][]byte) error {
	if len(updates) == 0 {
		return errors.New("database: empty update set")
	}
	for idx, rec := range updates {
		if idx >= uint64(d.numRecords) {
			return fmt.Errorf("database: update index %d outside database of %d records", idx, d.numRecords)
		}
		if len(rec) != d.recordSize {
			return fmt.Errorf("database: update for record %d has %d bytes, want the record size %d",
				idx, len(rec), d.recordSize)
		}
	}
	return nil
}

// ApplyUpdates validates the whole update set, then writes it, so a bad
// entry leaves the database untouched.
func (d *DB) ApplyUpdates(updates map[uint64][]byte) error {
	if err := d.CheckUpdates(updates); err != nil {
		return err
	}
	for idx, rec := range updates {
		copy(d.data[int(idx)*d.recordSize:], rec)
	}
	return nil
}

// Digest returns the SHA-256 of the padded form's contents and geometry:
// a header of 2^Domain() records and the record size, the N records, then
// the zero tail PadToPowerOfTwo would add, streamed into the hash rather
// than allocated. A database therefore digests the same as its padded
// form, which is what a server's hello reports. Replicated servers
// compare digests before serving: a silent replica mismatch would break
// reconstruction correctness (not privacy).
func (d *DB) Digest() [32]byte {
	h := sha256.New()
	var hdr [16]byte
	padded := 1 << uint(d.Domain())
	putUint64(hdr[:8], uint64(padded))
	putUint64(hdr[8:], uint64(d.recordSize))
	h.Write(hdr[:])
	h.Write(d.data)
	var zeros [4096]byte
	for tail := (padded - d.numRecords) * d.recordSize; tail > 0; tail -= len(zeros) {
		h.Write(zeros[:min(tail, len(zeros))])
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

func putUint64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}
