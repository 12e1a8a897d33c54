package cluster

import (
	"bytes"
	"testing"

	"github.com/impir/impir/internal/database"
)

// raggedManifest splits 10 records over 4 shards (sizes 3,3,2,2).
func raggedManifest(t *testing.T) Manifest {
	t.Helper()
	sizes, err := Ranges(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	m := Manifest{RecordSize: 32}
	var first uint64
	for _, n := range sizes {
		m.Shards = append(m.Shards, Shard{FirstRecord: first, NumRecords: n})
		first += n
	}
	return m
}

func TestPlanBatchOneRecordCoversEveryShard(t *testing.T) {
	m := raggedManifest(t)
	for g := uint64(0); g < m.NumRecords(); g++ {
		p, err := m.PlanBatch([]uint64{g}, 0)
		if err != nil {
			t.Fatalf("PlanBatch([%d]): %v", g, err)
		}
		if len(p.Locals) != len(m.Shards) {
			t.Fatalf("PlanBatch([%d]): %d sub-batches for %d shards", g, len(p.Locals), len(m.Shards))
		}
		owner := p.Owners[0]
		wantOwner, wantLocal, _ := m.Locate(g)
		if owner != wantOwner || p.Pos[0] != 0 || p.Locals[owner][0] != wantLocal {
			t.Fatalf("PlanBatch([%d]): owner %d local %d, want %d/%d",
				g, owner, p.Locals[owner][0], wantOwner, wantLocal)
		}
		// Every dummy must be a valid local index for its shard: each
		// cohort receives a well-formed sub-query it cannot distinguish
		// from a real one.
		for s, locals := range p.Locals {
			if len(locals) != 1 || locals[0] >= m.Shards[s].NumRecords {
				t.Fatalf("PlanBatch([%d]): shard %d sub-batch %v, want one local below %d",
					g, s, locals, m.Shards[s].NumRecords)
			}
		}
	}
}

func TestPlanBatchEqualShapeAcrossShards(t *testing.T) {
	m := raggedManifest(t)
	globals := []uint64{0, 4, 9, 2, 7} // straddles all four shards
	bp, err := m.PlanBatch(globals, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(bp.Owners) != len(globals) {
		t.Fatalf("%d owners for %d globals", len(bp.Owners), len(globals))
	}
	for s, locals := range bp.Locals {
		if len(locals) != len(globals) {
			t.Fatalf("shard %d got a batch of %d, want %d — batch shape must not leak ownership",
				s, len(locals), len(globals))
		}
		for i, local := range locals {
			if local >= m.Shards[s].NumRecords {
				t.Fatalf("shard %d batch item %d: local %d out of range", s, i, local)
			}
		}
	}
	for i, g := range globals {
		owner, local, _ := m.Locate(g)
		if bp.Owners[i] != owner || bp.Pos[i] != i || bp.Locals[owner][i] != local {
			t.Fatalf("batch item %d (global %d) misplanned", i, g)
		}
	}
	if _, err := m.PlanBatch(nil, 0); err == nil {
		t.Error("empty batch accepted")
	}

	// One local position per shard, then a broadcast one: each shard
	// receives its own local row plus the broadcast row, two in all.
	globals = []uint64{1, 4, 6, 9, 5}
	bp, err = m.PlanBatch(globals, 4)
	if err != nil {
		t.Fatal(err)
	}
	for s, locals := range bp.Locals {
		if len(locals) != 2 {
			t.Fatalf("shard %d got %d sub-queries, want its local row plus the broadcast one", s, len(locals))
		}
	}
	for i, g := range globals {
		owner, local, _ := m.Locate(g)
		if bp.Owners[i] != owner || bp.Locals[owner][bp.Pos[i]] != local {
			t.Fatalf("item %d (global %d) misplanned: owner %d pos %d", i, g, bp.Owners[i], bp.Pos[i])
		}
	}
	if bp.Pos[4] != 1 {
		t.Fatalf("broadcast row at position %d of its owner, want 1", bp.Pos[4])
	}
}

func TestRouteUpdate(t *testing.T) {
	m := raggedManifest(t)
	rec := func(b byte) []byte { return bytes.Repeat([]byte{b}, 32) }
	routed, err := m.RouteUpdate(map[uint64][]byte{
		0: rec(1), 2: rec(2), // shard 0 (records 0..2)
		9: rec(3), // shard 3 (records 8..9)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(routed) != 2 {
		t.Fatalf("update touched %d cohorts, want 2", len(routed))
	}
	if !bytes.Equal(routed[0][0], rec(1)) || !bytes.Equal(routed[0][2], rec(2)) {
		t.Error("shard 0 rows misrouted")
	}
	if !bytes.Equal(routed[3][1], rec(3)) { // global 9 → shard 3 local 1
		t.Error("global 9 should land at shard 3 local 1")
	}
	if _, ok := routed[1]; ok {
		t.Error("shard 1 contacted with no dirty rows")
	}

	if _, err := m.RouteUpdate(map[uint64][]byte{0: rec(1)[:5]}); err == nil {
		t.Error("wrong-length record accepted")
	}
	if _, err := m.RouteUpdate(map[uint64][]byte{10: rec(1)}); err == nil {
		t.Error("out-of-range record accepted")
	}
	if _, err := m.RouteUpdate(nil); err == nil {
		t.Error("empty update accepted")
	}
}

func TestSplitDBRagged(t *testing.T) {
	db, err := database.GenerateHashDB(10, 7)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := SplitDB(db, 4)
	if err != nil {
		t.Fatal(err)
	}
	wantSizes := []int{3, 3, 2, 2}
	var global int
	for s, part := range parts {
		if part.NumRecords() != wantSizes[s] {
			t.Fatalf("shard %d holds %d records, want %d", s, part.NumRecords(), wantSizes[s])
		}
		if part.RecordSize() != db.RecordSize() {
			t.Fatalf("shard %d record size %d", s, part.RecordSize())
		}
		for i := 0; i < part.NumRecords(); i++ {
			if !bytes.Equal(part.Record(i), db.Record(global)) {
				t.Fatalf("shard %d record %d differs from global record %d", s, i, global)
			}
			global++
		}
	}
	if global != db.NumRecords() {
		t.Fatalf("shards cover %d of %d records", global, db.NumRecords())
	}

	// Shard replicas must not alias the source: mutating a shard leaves
	// the original intact.
	parts[0].SetRecord(0, bytes.Repeat([]byte{0xFF}, 32))
	if bytes.Equal(db.Record(0), parts[0].Record(0)) {
		t.Fatal("SplitDB aliases the source database")
	}

	if _, err := SplitDB(db, 11); err == nil {
		t.Error("more shards than records accepted")
	}
	if _, err := SplitDB(nil, 2); err == nil {
		t.Error("nil database accepted")
	}
}
