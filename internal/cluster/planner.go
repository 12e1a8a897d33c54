package cluster

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
)

// Plan is the per-shard sub-query plan for one logical retrieval: one
// local index per shard. Locals[Owner] is the real local index of the
// target record; every other entry is a uniformly random dummy local
// index within that shard. Every shard receives a complete, well-formed
// PIR sub-query either way, and a PIR query reveals nothing about its
// index — so no cohort can tell whether it owns the record the client
// wanted, which is the privacy argument for querying all shards.
type Plan struct {
	// Owner is the shard whose sub-result is the requested record.
	Owner int
	// Locals holds one shard-local index per shard, in shard order.
	Locals []uint64
}

// BatchPlan is the per-shard plan for one logical batch retrieval.
// Every broadcast position sends each shard a sub-query — the real local
// index to its owner, a random dummy elsewhere — so every cohort receives
// an equal-length batch whose shape leaks nothing about how the
// requested records distribute across shards. A local position goes to
// its owner alone; the caller keeps the shape equal by giving every
// shard the same number of local positions (a coded batch's bucket
// slots, with buckets aligned to shards).
type BatchPlan struct {
	// Owners[i] is the shard owning the i-th requested record.
	Owners []int
	// Pos[i] is the i-th record's position in Locals[Owners[i]].
	Pos []int
	// Locals[s] is shard s's sub-batch of local indices.
	Locals [][]uint64
}

// PlanQuery maps a global record index to its sub-query plan: a
// one-record PlanBatch.
func (m Manifest) PlanQuery(global uint64) (Plan, error) {
	bp, err := m.PlanBatch([]uint64{global}, 0)
	if err != nil {
		return Plan{}, err
	}
	p := Plan{Owner: bp.Owners[0], Locals: make([]uint64, len(bp.Locals))}
	for s, locals := range bp.Locals {
		p.Locals[s] = locals[0]
	}
	return p, nil
}

// PlanBatch maps a batch of global indices to per-shard sub-batches: the
// first local indices go to their owning shard alone, every later one is
// broadcast.
func (m Manifest) PlanBatch(globals []uint64, local int) (BatchPlan, error) {
	if len(globals) == 0 {
		return BatchPlan{}, fmt.Errorf("cluster: empty batch")
	}
	bp := BatchPlan{
		Owners: make([]int, len(globals)),
		Pos:    make([]int, len(globals)),
		Locals: make([][]uint64, len(m.Shards)),
	}
	for i, g := range globals {
		owner, l, err := m.Locate(g)
		if err != nil {
			return BatchPlan{}, err
		}
		bp.Owners[i], bp.Pos[i] = owner, len(bp.Locals[owner])
		for s, shard := range m.Shards {
			sub := l
			if s != owner {
				if i < local {
					continue
				}
				if sub, err = randIndex(shard.NumRecords); err != nil {
					return BatchPlan{}, err
				}
			}
			bp.Locals[s] = append(bp.Locals[s], sub)
		}
	}
	return bp, nil
}

// RouteUpdate partitions a global update set by owning shard, rewriting
// keys to shard-local indices: out[s] is nil when shard s has no dirty
// rows. Updates are public operator actions, so routing each row only
// to its owning cohort leaks nothing a cohort would not learn anyway by
// applying the update.
func (m Manifest) RouteUpdate(updates map[uint64][]byte) (map[int]map[uint64][]byte, error) {
	if len(updates) == 0 {
		return nil, fmt.Errorf("cluster: empty update set")
	}
	out := make(map[int]map[uint64][]byte)
	for global, rec := range updates {
		if len(rec) != m.RecordSize {
			return nil, fmt.Errorf("cluster: update for record %d has %d bytes, want the record size %d",
				global, len(rec), m.RecordSize)
		}
		owner, local, err := m.Locate(global)
		if err != nil {
			return nil, err
		}
		if out[owner] == nil {
			out[owner] = make(map[uint64][]byte)
		}
		out[owner][local] = rec
	}
	return out, nil
}

// randIndex draws a uniform index in [0, n) from crypto/rand. Dummy
// indices do not strictly need to be unpredictable — a PIR sub-query
// hides its index whatever it is — but uniform randomness costs nothing
// and removes any temptation to reason about dummy placement.
func randIndex(n uint64) (uint64, error) {
	if n == 0 {
		return 0, fmt.Errorf("cluster: empty shard")
	}
	// Rejection-sample to avoid modulo bias; irrelevant for privacy but
	// keeps the dummy distribution exactly uniform.
	max := ^uint64(0) - ^uint64(0)%n
	var buf [8]byte
	for {
		if _, err := rand.Read(buf[:]); err != nil {
			return 0, fmt.Errorf("cluster: rand: %w", err)
		}
		v := binary.LittleEndian.Uint64(buf[:])
		if v < max {
			return v % n, nil
		}
	}
}
