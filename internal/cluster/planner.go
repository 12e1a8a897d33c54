package cluster

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
)

// BatchPlan is the per-shard plan for one logical retrieval, single or
// batched. Every broadcast position sends each shard a sub-query — the
// real local index to its owner, a uniformly random dummy elsewhere — so
// every cohort receives an equal-length batch of well-formed PIR
// sub-queries, and since a PIR query reveals nothing about its index, no
// cohort can tell whether it owns a record the client wanted or how the
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
