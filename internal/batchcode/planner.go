package batchcode

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
)

// SourceKind says where a batch position's record comes from when a
// plan's answers are demultiplexed.
type SourceKind int

const (
	// FromSlot: the record is the answer of plan slot Slot.
	FromSlot SourceKind = iota
	// FromCache: the cached predicate claimed the record; no slot
	// carries it (a dummy query was issued in its place).
	FromCache
	// FromDup: the record duplicates an earlier batch position Dup.
	FromDup
)

// Source routes one batch position to its record.
type Source struct {
	Kind SourceKind
	// Slot is the plan slot index for FromSlot.
	Slot int
	// Dup is the earlier batch position for FromDup.
	Dup int
}

// Plan is the constant-shape coded query vector for one batch:
// exactly QueriesPerBatch() coded row indices — slot b < Buckets
// queries inside bucket b, the tail slots range over the whole coded
// database — in fixed order. Which slots are real and which are dummy
// is known only to the client.
type Plan struct {
	// Indices are the coded rows to retrieve, one per slot.
	Indices []uint64
	// Sources maps each batch position to its record's origin.
	Sources []Source
	// Real counts slots carrying real queries; the remaining
	// len(Indices)-Real slots are uniform dummies.
	Real int
	// CacheHits counts batch positions the cached predicate claimed.
	CacheHits int
}

// PlanBatch matches a batch of logical indices onto the bucket grid:
// each distinct uncached record is assigned to one bucket holding a
// copy (greedy with augmenting-path repair — the classic bipartite
// matching, so a record displaced from a contested bucket can push an
// earlier assignment to its alternate copy), duplicates collapse onto
// one query, and records the cached predicate claims are spent as side
// information (dropped from the matching, their slots left dummy).
// Records the matching cannot place go to the overflow tail.
//
// The returned ok is false when the batch exceeds MaxBatch or more
// records overflow than the manifest's constant tail absorbs — the
// batch is not codeable and the caller falls back to the uncoded path.
// How often that happens depends on the demand: a batch of more
// distinct records than Buckets+OverflowSlots never places.
func (l *Layout) PlanBatch(indices []uint64, cached func(uint64) bool) (*Plan, bool, error) {
	m := l.m
	if len(indices) == 0 {
		return nil, false, fmt.Errorf("batchcode: empty batch")
	}
	if len(indices) > m.MaxBatch {
		return nil, false, nil
	}
	p := &Plan{
		Indices: make([]uint64, m.QueriesPerBatch()),
		Sources: make([]Source, len(indices)),
	}

	// Dedup and split cached from matchable.
	firstPos := make(map[uint64]int, len(indices))
	type want struct {
		index uint64
		pos   int // first batch position asking for it
	}
	var real []want
	for i, idx := range indices {
		if idx >= m.NumRecords {
			return nil, false, fmt.Errorf("batchcode: index %d outside logical database of %d records", idx, m.NumRecords)
		}
		if first, seen := firstPos[idx]; seen {
			p.Sources[i] = Source{Kind: FromDup, Dup: first}
			continue
		}
		firstPos[idx] = i
		if cached != nil && cached(idx) {
			p.Sources[i] = Source{Kind: FromCache}
			p.CacheHits++
			continue
		}
		real = append(real, want{index: idx, pos: i})
	}

	// Bipartite matching of records onto buckets (Kuhn's algorithm):
	// greedy first, then augmenting paths over the r candidate edges.
	owner := make([]int, m.Buckets) // bucket -> index into real, or -1
	choice := make([]int, len(real))
	for b := range owner {
		owner[b] = -1
	}
	visited := make([]bool, m.Buckets)
	var assign func(u int) bool
	assign = func(u int) bool {
		for j, b := range m.Candidates(real[u].index) {
			if visited[b] {
				continue
			}
			visited[b] = true
			if owner[b] == -1 || assign(owner[b]) {
				owner[b] = u
				choice[u] = j
				return true
			}
		}
		return false
	}
	var overflow []int
	for u := range real {
		for b := range visited {
			visited[b] = false
		}
		if !assign(u) {
			overflow = append(overflow, u)
		}
	}
	if len(overflow) > m.OverflowSlots {
		return nil, false, nil
	}

	// Bucket slots: the assigned copy's row, or a uniform dummy row
	// inside the bucket.
	for b := 0; b < m.Buckets; b++ {
		if u := owner[b]; u != -1 {
			w := real[u]
			p.Indices[b] = l.Row(w.index, choice[u])
			p.Sources[w.pos] = Source{Kind: FromSlot, Slot: b}
			p.Real++
			continue
		}
		dummy, err := randIndex(m.BucketRows)
		if err != nil {
			return nil, false, err
		}
		p.Indices[b] = uint64(b)*m.BucketRows + dummy
	}
	// Overflow tail: the residue's first-copy rows, then full-range
	// dummies — always OverflowSlots entries.
	for t := 0; t < m.OverflowSlots; t++ {
		slot := m.Buckets + t
		if t < len(overflow) {
			w := real[overflow[t]]
			p.Indices[slot] = l.Row(w.index, 0)
			p.Sources[w.pos] = Source{Kind: FromSlot, Slot: slot}
			p.Real++
			continue
		}
		dummy, err := randIndex(m.TotalRows())
		if err != nil {
			return nil, false, err
		}
		p.Indices[slot] = dummy
	}
	return p, true, nil
}

// randIndex draws a uniform index in [0, n) from crypto/rand. Dummy
// indices do not strictly need to be unpredictable — a PIR sub-query
// hides its index whatever it is — but uniform randomness costs nothing
// and removes any temptation to reason about dummy placement (the same
// stance as internal/cluster's dummy locals).
func randIndex(n uint64) (uint64, error) {
	if n == 0 {
		return 0, fmt.Errorf("batchcode: empty range")
	}
	// Rejection-sample to avoid modulo bias.
	max := ^uint64(0) - ^uint64(0)%n
	var buf [8]byte
	for {
		if _, err := rand.Read(buf[:]); err != nil {
			return 0, fmt.Errorf("batchcode: rand: %w", err)
		}
		v := binary.LittleEndian.Uint64(buf[:])
		if v < max {
			return v % n, nil
		}
	}
}
