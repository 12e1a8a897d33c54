package impir

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"github.com/impir/impir/internal/batchcode"
	"github.com/impir/impir/internal/cluster"
)

// The unified deployment manifest: one JSON document (deployment.json)
// describing everything impir.Open needs to drive a whole IM-PIR
// deployment as a single logical Store — flat server pairs, sharded
// topologies, replica sets per party, and keyword tables atop either.
//
// The composition model:
//
//	Deployment
//	└── Shards: contiguous row ranges tiling the record space
//	    └── Parties: ≥ 2 mutually NON-COLLUDING query recipients;
//	        each party receives exactly one share of every query
//	        └── Replicas: ≥ 1 interchangeable servers run by that
//	            SAME party, holding byte-identical data — hedging
//	            and failover targets, not a privacy boundary
//	└── Keyword: optional cuckoo-table manifest layered on the records
//
// Privacy note on replicas: all replicas of one party belong to one
// trust domain. A query's share for that party may be sent to any or
// all of them — they could share it among themselves anyway — so hedged
// fan-out across a party's replicas leaks nothing beyond what sending
// to one replica already does. Replicas must never be listed under a
// party they do not trust: that would hand two shares to one colluding
// operator.

// Deployment size caps, enforced by Validate so an adversarial manifest
// cannot make a client allocate or dial without bound.
const (
	maxDeploymentShards = 4096
	maxPartiesPerShard  = 64
	maxReplicasPerParty = 16
	maxReplicaAddrLen   = 256
)

// Party is one non-colluding member of a shard cohort: a single trust
// domain running one or more interchangeable replicas of the shard.
type Party struct {
	// Replicas are the party's server addresses (≥ 1). All hold
	// byte-identical data; the client sends the party's share to the
	// fastest-first of them, hedging across the rest.
	Replicas []string `json:"replicas"`
}

// DeploymentShard is one contiguous row range of a deployment, served
// by a cohort of ≥ 2 non-colluding parties.
type DeploymentShard struct {
	// FirstRecord is the global index of the shard's first record.
	FirstRecord uint64 `json:"first_record"`
	// NumRecords is the number of records the shard holds. In a
	// single-shard deployment it may be 0: the geometry is then learned
	// from the server handshake.
	NumRecords uint64 `json:"num_records"`
	// Parties are the shard's non-colluding cohort members.
	Parties []Party `json:"parties"`
}

// End returns the exclusive global upper bound of the shard's range.
func (s DeploymentShard) End() uint64 { return s.FirstRecord + s.NumRecords }

// Deployment is the unified manifest impir.Open drives: the topology of
// a whole PIR deployment as one logical store. It round-trips through
// JSON (ParseDeployment / LoadDeployment / Deployment.JSON) for the
// -deployment command-line flag and config files.
type Deployment struct {
	// RecordSize is the record size in bytes, identical across shards.
	// Required for multi-shard deployments; a single-shard deployment
	// may leave it 0 and learn the geometry from the server handshake.
	RecordSize int `json:"record_size,omitempty"`
	// Shards lists the row-range shards in ascending global order; with
	// more than one, they must tile [0, NumRecords()) exactly.
	Shards []DeploymentShard `json:"shards"`
	// Keyword optionally layers a cuckoo key→value table over the
	// records (one bucket per record, built with BuildKVDB). The
	// manifest is public data: it reveals bucket geometry and hash
	// seeds, never the stored keys.
	Keyword *KVManifest `json:"keyword,omitempty"`
	// BatchCode optionally declares that the served rows are a
	// probabilistic batch-code encoding of a smaller logical database:
	// the shards hold CodeManifest.TotalRows() coded rows while the
	// application addresses CodeManifest.NumRecords logical records.
	// Open then routes RetrieveBatch through the batch planner — one
	// sub-query per bucket instead of one full scan per record. Like
	// Keyword, the manifest is public data: geometry and hash seeds
	// only.
	BatchCode *CodeManifest `json:"batch_code,omitempty"`
}

// CodeManifest describes a probabilistic batch-code layout
// (internal/batchcode): how a logical database is replicated into
// bucketised subdatabases so multi-record batches cost one sub-query
// per bucket.
type CodeManifest = batchcode.Manifest

// ParseCodeManifest parses a batch-code manifest from JSON and
// validates it.
func ParseCodeManifest(data []byte) (CodeManifest, error) { return batchcode.Parse(data) }

// LoadCodeManifest reads and validates a batch-code manifest file.
func LoadCodeManifest(path string) (CodeManifest, error) { return batchcode.Load(path) }

// DeriveBatchCode derives a batch-code manifest for a logical database
// of numRecords records: bucket capacities are sized for the requested
// bucket count, replication factor (choices) and overflow slots, and
// the per-choice hash seeds are drawn deterministically from seed, so
// every holder of the same parameters derives the same layout.
func DeriveBatchCode(numRecords uint64, recordSize, buckets, choices, overflowSlots, maxBatch int, seed uint64) (CodeManifest, error) {
	return batchcode.Derive(numRecords, recordSize, buckets, choices, overflowSlots, maxBatch, seed)
}

// EncodeBatchCode replicates the logical database into the manifest's
// bucket layout — the m.TotalRows()-row database coded servers load.
// Encoding is deterministic: independently started replicas that
// encode the same logical database stay byte-identical.
func EncodeBatchCode(db *DB, m CodeManifest) (*DB, error) { return batchcode.Encode(db, m) }

// FlatDeployment describes the simplest topology: one shard served by
// len(addrs) single-replica parties — the classic "dial these ≥ 2
// non-colluding servers" deployment, with geometry learned from the
// handshake.
func FlatDeployment(addrs ...string) Deployment {
	return Deployment{Shards: []DeploymentShard{{Parties: singleReplicaParties(addrs)}}}
}

// singleReplicaParties makes each address a party of one replica.
func singleReplicaParties(addrs []string) []Party {
	parties := make([]Party, len(addrs))
	for i, a := range addrs {
		parties[i] = Party{Replicas: []string{a}}
	}
	return parties
}

// ReplicatedDeployment describes one shard served by len(parties)
// non-colluding parties, each running its own replica set. Replicas
// within one inner slice belong to ONE trust domain — hedging targets,
// not a privacy boundary.
func ReplicatedDeployment(parties ...[]string) Deployment {
	ps := make([]Party, len(parties))
	for i, replicas := range parties {
		ps[i] = Party{Replicas: append([]string(nil), replicas...)}
	}
	return Deployment{Shards: []DeploymentShard{{Parties: ps}}}
}

// UniformManifest describes a sharded deployment: numRecords records
// of recordSize bytes split across len(cohorts) shards along the row
// ranges SplitDB carves (sizes differ by at most one; ragged last shard
// when the division is uneven), with cohorts[i]'s addresses serving
// shard i as single-replica parties. The result is validated.
func UniformManifest(numRecords uint64, recordSize int, cohorts [][]string) (Deployment, error) {
	sizes, err := cluster.Ranges(numRecords, len(cohorts))
	if err != nil {
		return Deployment{}, err
	}
	d := Deployment{RecordSize: recordSize, Shards: make([]DeploymentShard, len(cohorts))}
	var first uint64
	for i, n := range sizes {
		d.Shards[i] = DeploymentShard{FirstRecord: first, NumRecords: n, Parties: singleReplicaParties(cohorts[i])}
		first += n
	}
	return d, d.Validate()
}

// DeploymentFromManifest returns d unchanged. It is kept for callers
// written when UniformManifest returned a separate shard manifest; new
// code passes UniformManifest's Deployment to Open directly.
func DeploymentFromManifest(d Deployment) Deployment { return d }

// WithKeyword returns a copy of the deployment carrying the keyword
// table manifest, so kv topologies compose as data: FlatDeployment(
// addrs...).WithKeyword(m) is a keyword store over a server pair.
func (d Deployment) WithKeyword(m KVManifest) Deployment {
	d.Keyword = &m
	return d
}

// WithBatchCode returns a copy of the deployment carrying the batch
// code manifest, so coded topologies compose as data like WithKeyword.
func (d Deployment) WithBatchCode(m CodeManifest) Deployment {
	d.BatchCode = &m
	return d
}

// NumShards returns the shard count.
func (d Deployment) NumShards() int { return len(d.Shards) }

// NumRecords returns the total record count across shards — 0 when a
// single-shard deployment leaves the geometry to the handshake.
func (d Deployment) NumRecords() uint64 {
	if len(d.Shards) == 0 {
		return 0
	}
	return d.Shards[len(d.Shards)-1].End()
}

// Validate checks the topology: shards tiling the record space, ≥ 2
// non-colluding parties per shard, ≥ 1 replica per party, non-empty
// addresses, the size caps, and — when present — the keyword manifest.
func (d Deployment) Validate() error {
	if len(d.Shards) == 0 {
		return fmt.Errorf("impir: deployment has no shards")
	}
	if len(d.Shards) > maxDeploymentShards {
		return fmt.Errorf("impir: deployment has %d shards, the cap is %d", len(d.Shards), maxDeploymentShards)
	}
	if d.RecordSize < 0 {
		return fmt.Errorf("impir: negative record size %d", d.RecordSize)
	}
	multi := len(d.Shards) > 1
	if multi && d.RecordSize == 0 {
		return fmt.Errorf("impir: a multi-shard deployment must declare record_size")
	}
	var next uint64
	for i, s := range d.Shards {
		if multi && s.NumRecords < 1 {
			return fmt.Errorf("impir: shard %d holds no records", i)
		}
		if s.FirstRecord != next {
			return fmt.Errorf("impir: shard %d starts at record %d, want %d (shards must tile the record space contiguously)",
				i, s.FirstRecord, next)
		}
		if s.NumRecords > 0 && d.RecordSize == 0 {
			return fmt.Errorf("impir: shard %d declares num_records without a deployment record_size", i)
		}
		if len(s.Parties) < 2 {
			return fmt.Errorf("impir: shard %d has %d part(y/ies); a PIR cohort needs ≥ 2 non-colluding parties",
				i, len(s.Parties))
		}
		if len(s.Parties) > maxPartiesPerShard {
			return fmt.Errorf("impir: shard %d has %d parties, the cap is %d", i, len(s.Parties), maxPartiesPerShard)
		}
		for p, party := range s.Parties {
			if len(party.Replicas) < 1 {
				return fmt.Errorf("impir: shard %d party %d has no replicas", i, p)
			}
			if len(party.Replicas) > maxReplicasPerParty {
				return fmt.Errorf("impir: shard %d party %d has %d replicas, the cap is %d",
					i, p, len(party.Replicas), maxReplicasPerParty)
			}
			for r, addr := range party.Replicas {
				if addr == "" {
					return fmt.Errorf("impir: shard %d party %d replica %d has an empty address", i, p, r)
				}
				if len(addr) > maxReplicaAddrLen {
					return fmt.Errorf("impir: shard %d party %d replica %d address exceeds %d bytes",
						i, p, r, maxReplicaAddrLen)
				}
			}
		}
		next = s.End()
	}
	if d.Keyword != nil {
		if err := d.Keyword.Validate(); err != nil {
			return err
		}
	}
	if d.BatchCode != nil {
		if err := d.validateBatchCode(); err != nil {
			return err
		}
	}
	return nil
}

// validateBatchCode checks the coded layer's fit: the served rows must
// be exactly the code's physical grid, record sizes must agree across
// every declared layer, and in a sharded deployment the shard cuts must
// fall on bucket boundaries with the same bucket count per shard — that
// alignment is what lets the coded batch send each shard a constant
// C/S(+overflow) sub-queries instead of fanning the whole batch
// everywhere, which is where the per-server win comes from.
func (d Deployment) validateBatchCode() error {
	code := d.BatchCode
	if err := code.Validate(); err != nil {
		return err
	}
	if d.RecordSize > 0 && d.RecordSize != code.RecordSize {
		return fmt.Errorf("impir: deployment record size %d does not match the batch code's %d",
			d.RecordSize, code.RecordSize)
	}
	if n := d.NumRecords(); n > 0 && n != code.TotalRows() {
		return fmt.Errorf("impir: deployment serves %d rows but the batch code lays out %d (buckets × bucket_rows)",
			n, code.TotalRows())
	}
	if s := len(d.Shards); s > 1 {
		if code.Buckets%s != 0 {
			return fmt.Errorf("impir: %d buckets do not divide evenly over %d shards; a coded sharded deployment needs buckets %% shards == 0",
				code.Buckets, s)
		}
		perShard := uint64(code.Buckets/s) * code.BucketRows
		for i, shard := range d.Shards {
			if shard.NumRecords != perShard {
				return fmt.Errorf("impir: shard %d holds %d rows, want %d (%d buckets × %d rows; shard cuts must fall on bucket boundaries)",
					i, shard.NumRecords, perShard, code.Buckets/s, code.BucketRows)
			}
		}
	}
	if d.Keyword != nil {
		if d.Keyword.TotalBuckets() != code.NumRecords {
			return fmt.Errorf("impir: keyword table has %d buckets but the batch code encodes %d logical records; the code must cover exactly the keyword table",
				d.Keyword.TotalBuckets(), code.NumRecords)
		}
		if d.Keyword.RecordSize() != code.RecordSize {
			return fmt.Errorf("impir: keyword record size %d does not match the batch code's %d",
				d.Keyword.RecordSize(), code.RecordSize)
		}
	}
	return nil
}

// ParseDeployment decodes and validates a JSON deployment manifest. A
// field the manifest does not define is an error: a misspelt
// "batch_code" dropped in silence would open an uncoded store over coded
// rows.
func ParseDeployment(data []byte) (Deployment, error) {
	var d Deployment
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		return Deployment{}, fmt.Errorf("impir: parse deployment: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Deployment{}, errors.New("impir: parse deployment: data after the manifest")
	}
	return d, d.Validate()
}

// LoadDeployment reads and validates a JSON deployment manifest file
// (the -deployment flag).
func LoadDeployment(path string) (Deployment, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Deployment{}, fmt.Errorf("impir: load deployment: %w", err)
	}
	return ParseDeployment(data)
}

// JSON encodes the deployment for config files; ParseDeployment
// round-trips it.
func (d Deployment) JSON() ([]byte, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return json.MarshalIndent(d, "", "  ")
}

// cohorts returns the shard's party → replica-address lists.
func (s DeploymentShard) cohorts() [][]string {
	out := make([][]string, len(s.Parties))
	for p, party := range s.Parties {
		out[p] = party.Replicas
	}
	return out
}
