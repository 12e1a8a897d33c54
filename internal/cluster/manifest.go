// Package cluster turns S independent server cohorts — each a group of
// 2..n non-colluding replicas holding one contiguous row-range shard of
// the database — into one logical PIR deployment.
//
// IM-PIR's "all-for-one" principle makes every query a linear scan of
// the whole replica, so a single server pair caps out at one machine's
// memory bandwidth. Horizontal partitioning cuts per-server scan work
// and memory by the shard factor while leaking nothing: the client
// queries EVERY shard cohort on every retrieval — the real sub-query on
// the shard that owns the record, a well-formed sub-query for a dummy
// local index on all others — so each cohort sees a valid PIR query
// regardless of the target, and learns nothing about which shard
// mattered (the standard partitioned-PIR construction).
//
// The package comprises a shard Manifest (topology + JSON round-trip
// for flags and config files), a query planner mapping global indices
// to per-shard sub-query plans, and SplitDB to carve a database into
// shard replicas. The network client driving every cohort concurrently
// — impir.Client, whose shard step this planner is — lives in the root
// package; this package deliberately stays below it (and below
// internal/bench) in the dependency order, so planners and benchmarks
// can reason about topologies without a network stack.
package cluster

import (
	"encoding/json"
	"fmt"
	"os"
)

// Shard is one contiguous row-range of the global database, served by a
// cohort of non-colluding replicas (a complete multi-server PIR
// deployment of its own).
type Shard struct {
	// FirstRecord is the global index of the shard's first record.
	FirstRecord uint64 `json:"first_record"`
	// NumRecords is the number of records the shard holds (≥ 1).
	NumRecords uint64 `json:"num_records"`
	// Replicas are the cohort's server addresses (≥ 2; replicas of one
	// cohort must be mutually non-colluding, like any PIR deployment).
	Replicas []string `json:"replicas"`
}

// End returns the exclusive global upper bound of the shard's range.
func (s Shard) End() uint64 { return s.FirstRecord + s.NumRecords }

// Manifest describes a sharded deployment's topology: how the global
// record space is carved into contiguous row-range shards and which
// cohort serves each. Manifests round-trip through JSON for -manifest
// command-line flags and config files.
type Manifest struct {
	// RecordSize is the record size in bytes, identical across shards.
	RecordSize int `json:"record_size"`
	// Shards lists the row-range shards in ascending global order; they
	// must tile [0, NumRecords()) exactly — no gaps, no overlaps.
	Shards []Shard `json:"shards"`
}

// NumRecords returns the total record count across all shards.
func (m Manifest) NumRecords() uint64 {
	if len(m.Shards) == 0 {
		return 0
	}
	return m.Shards[len(m.Shards)-1].End()
}

// NumShards returns the shard count.
func (m Manifest) NumShards() int { return len(m.Shards) }

// Manifest size caps, enforced by Validate so an adversarial manifest
// cannot make a client allocate or dial without bound. They mirror the
// unified deployment manifest's caps (a cohort member here is a party
// there).
const (
	maxShards         = 4096
	maxCohortReplicas = 64
	maxReplicaAddrLen = 256
)

// Validate checks the topology: a positive record size, at least one
// shard, shards tiling the global record space contiguously from 0 with
// no gaps or overlaps, at least one record per shard, at least two
// replica addresses per cohort, and the size caps.
func (m Manifest) Validate() error {
	if m.RecordSize < 1 {
		return fmt.Errorf("cluster: record size %d must be ≥ 1", m.RecordSize)
	}
	if len(m.Shards) == 0 {
		return fmt.Errorf("cluster: manifest has no shards")
	}
	if len(m.Shards) > maxShards {
		return fmt.Errorf("cluster: manifest has %d shards, the cap is %d", len(m.Shards), maxShards)
	}
	var next uint64
	for i, s := range m.Shards {
		if s.NumRecords < 1 {
			return fmt.Errorf("cluster: shard %d holds no records", i)
		}
		if s.FirstRecord != next {
			return fmt.Errorf("cluster: shard %d starts at record %d, want %d (shards must tile the record space contiguously)",
				i, s.FirstRecord, next)
		}
		if len(s.Replicas) < 2 {
			return fmt.Errorf("cluster: shard %d has %d replica(s); a PIR cohort needs ≥ 2 non-colluding servers",
				i, len(s.Replicas))
		}
		if len(s.Replicas) > maxCohortReplicas {
			return fmt.Errorf("cluster: shard %d has %d replicas, the cap is %d", i, len(s.Replicas), maxCohortReplicas)
		}
		for r, addr := range s.Replicas {
			if addr == "" {
				return fmt.Errorf("cluster: shard %d replica %d has an empty address", i, r)
			}
			if len(addr) > maxReplicaAddrLen {
				return fmt.Errorf("cluster: shard %d replica %d address exceeds %d bytes", i, r, maxReplicaAddrLen)
			}
		}
		next = s.End()
	}
	return nil
}

// Locate maps a global record index to its owning (shard, local index)
// pair. Shards are contiguous and ordered, so this is a linear walk —
// shard counts are small (machines, not records).
func (m Manifest) Locate(global uint64) (shard int, local uint64, err error) {
	for i, s := range m.Shards {
		if global >= s.FirstRecord && global < s.End() {
			return i, global - s.FirstRecord, nil
		}
	}
	return 0, 0, fmt.Errorf("cluster: index %d outside sharded database of %d records", global, m.NumRecords())
}

// Ranges carves numRecords into shards contiguous row ranges: every
// shard gets ⌊N/S⌋ records and the first N%S shards one extra, so sizes
// differ by at most one and the last shard is the ragged (smallest) one
// when N is not divisible by S. Returns the per-shard record counts.
func Ranges(numRecords uint64, shards int) ([]uint64, error) {
	if shards < 1 {
		return nil, fmt.Errorf("cluster: shard count %d must be ≥ 1", shards)
	}
	if numRecords < uint64(shards) {
		return nil, fmt.Errorf("cluster: cannot split %d records into %d shards (every shard needs ≥ 1 record)",
			numRecords, shards)
	}
	base, rem := numRecords/uint64(shards), numRecords%uint64(shards)
	out := make([]uint64, shards)
	for i := range out {
		out[i] = base
		if uint64(i) < rem {
			out[i]++
		}
	}
	return out, nil
}

// Uniform builds a manifest splitting numRecords × recordSize records
// across len(cohorts) shards using Ranges, assigning cohorts[i]'s
// replica addresses to shard i.
func Uniform(numRecords uint64, recordSize int, cohorts [][]string) (Manifest, error) {
	sizes, err := Ranges(numRecords, len(cohorts))
	if err != nil {
		return Manifest{}, err
	}
	m := Manifest{RecordSize: recordSize, Shards: make([]Shard, len(cohorts))}
	var first uint64
	for i, n := range sizes {
		m.Shards[i] = Shard{FirstRecord: first, NumRecords: n, Replicas: cohorts[i]}
		first += n
	}
	return m, m.Validate()
}

// Parse decodes and validates a JSON manifest.
func Parse(data []byte) (Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return Manifest{}, fmt.Errorf("cluster: parse manifest: %w", err)
	}
	return m, m.Validate()
}

// Load reads and validates a JSON manifest file (the -manifest flag).
func Load(path string) (Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Manifest{}, fmt.Errorf("cluster: load manifest: %w", err)
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
