package batchcode

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"github.com/impir/impir/internal/database"
)

func testManifest(t *testing.T, numRecords uint64, buckets int) Manifest {
	t.Helper()
	m, err := Derive(numRecords, 16, buckets, 2, 1, 32, 7)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func testDB(t *testing.T, n uint64, recordSize int) *database.DB {
	t.Helper()
	db, err := database.New(int(n), recordSize)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < int(n); i++ {
		rec := make([]byte, recordSize)
		binary.LittleEndian.PutUint64(rec, uint64(i)^0xdeadbeef)
		if err := db.SetRecord(i, rec); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestManifestRoundTrip(t *testing.T) {
	m := testManifest(t, 1024, 8)
	data, err := m.JSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, back) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", m, back)
	}
}

func TestManifestValidateRejects(t *testing.T) {
	base := testManifest(t, 1024, 8)
	cases := []struct {
		name   string
		mutate func(*Manifest)
	}{
		{"zero records", func(m *Manifest) { m.NumRecords = 0 }},
		{"records over cap", func(m *Manifest) { m.NumRecords = MaxRecords + 1 }},
		{"zero record size", func(m *Manifest) { m.RecordSize = 0 }},
		{"record size over cap", func(m *Manifest) { m.RecordSize = MaxRecordSize + 1 }},
		{"one choice", func(m *Manifest) { m.Choices = 1; m.Seeds = m.Seeds[:1] }},
		{"too many choices", func(m *Manifest) { m.Choices = MaxChoices + 1 }},
		{"buckets under choices", func(m *Manifest) { m.Buckets = 1 }},
		{"buckets over cap", func(m *Manifest) { m.Buckets = MaxBuckets + 1 }},
		{"zero bucket rows", func(m *Manifest) { m.BucketRows = 0 }},
		{"negative overflow", func(m *Manifest) { m.OverflowSlots = -1 }},
		{"overflow over cap", func(m *Manifest) { m.OverflowSlots = MaxOverflowSlots + 1 }},
		{"zero batch cap", func(m *Manifest) { m.MaxBatch = 0 }},
		{"batch cap over cap", func(m *Manifest) { m.MaxBatch = MaxDeclaredBatch + 1 }},
		{"seed count mismatch", func(m *Manifest) { m.Seeds = m.Seeds[:1] }},
		{"duplicate seeds", func(m *Manifest) { m.Seeds = []uint64{3, 3} }},
	}
	for _, tc := range cases {
		m := base
		m.Seeds = append([]uint64(nil), base.Seeds...)
		tc.mutate(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: validated", tc.name)
		}
	}
}

func TestCandidatesDistinctAndDeterministic(t *testing.T) {
	m := testManifest(t, 4096, 8)
	m.Choices = 4
	m.Seeds = []uint64{1, 2, 3, 4}
	for i := uint64(0); i < 4096; i++ {
		c := m.Candidates(i)
		if len(c) != m.Choices {
			t.Fatalf("record %d: %d candidates", i, len(c))
		}
		seen := map[int]bool{}
		for _, b := range c {
			if b < 0 || b >= m.Buckets {
				t.Fatalf("record %d: candidate %d out of range", i, b)
			}
			if seen[b] {
				t.Fatalf("record %d: duplicate candidate %d in %v", i, b, c)
			}
			seen[b] = true
		}
		if !reflect.DeepEqual(c, m.Candidates(i)) {
			t.Fatalf("record %d: candidates not deterministic", i)
		}
	}
}

func TestLayoutEncodeDecode(t *testing.T) {
	m := testManifest(t, 1000, 8)
	l, err := NewLayout(m)
	if err != nil {
		t.Fatal(err)
	}
	db := testDB(t, m.NumRecords, m.RecordSize)
	coded, err := Encode(db, m)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(coded.NumRecords()) != m.TotalRows() {
		t.Fatalf("coded database has %d rows, want %d", coded.NumRecords(), m.TotalRows())
	}
	// Every copy of every record decodes byte-identically, and the
	// copies live in the candidate buckets.
	for i := uint64(0); i < m.NumRecords; i++ {
		want := db.Record(int(i))
		cand := m.Candidates(i)
		for j := 0; j < m.Choices; j++ {
			row := l.Row(i, j)
			if got := coded.Record(int(row)); !bytes.Equal(got, want) {
				t.Fatalf("record %d copy %d at row %d decodes wrong", i, j, row)
			}
			if b := l.Bucket(i, j); b != cand[j] {
				t.Fatalf("record %d copy %d in bucket %d, want %d", i, j, b, cand[j])
			}
		}
	}
}

func TestDeriveSizesTightly(t *testing.T) {
	m := testManifest(t, 2048, 8)
	if _, err := NewLayout(m); err != nil {
		t.Fatalf("derived manifest fails layout: %v", err)
	}
	// One row fewer must overflow — BucketRows is the exact max load.
	m.BucketRows--
	if m.BucketRows > 0 {
		if _, err := NewLayout(m); err == nil {
			t.Fatal("undersized bucket rows accepted")
		}
	}
}

func TestPlanBatchShapeAndCoverage(t *testing.T) {
	m := testManifest(t, 4096, 16)
	l, err := NewLayout(m)
	if err != nil {
		t.Fatal(err)
	}
	rng := uint64(99)
	next := func(n uint64) uint64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return (rng >> 11) % n
	}
	for trial := 0; trial < 200; trial++ {
		b := 1 + int(next(uint64(m.MaxBatch)))
		indices := make([]uint64, b)
		for i := range indices {
			indices[i] = next(m.NumRecords)
		}
		plan, ok, err := l.PlanBatch(indices, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			// Rare (overflow tail exhausted); the fallback contract.
			continue
		}
		// Shape: always QueriesPerBatch slots, bucket slots inside
		// their bucket, overflow slots inside the coded database.
		if len(plan.Indices) != m.QueriesPerBatch() {
			t.Fatalf("plan has %d slots, want %d", len(plan.Indices), m.QueriesPerBatch())
		}
		for s, row := range plan.Indices {
			if s < m.Buckets {
				if row/m.BucketRows != uint64(s) {
					t.Fatalf("slot %d row %d outside bucket %d", s, row, s)
				}
			} else if row >= m.TotalRows() {
				t.Fatalf("overflow slot %d row %d outside coded database", s, row)
			}
		}
		// Coverage: every batch position decodes to its record via its
		// source.
		for i, idx := range indices {
			src := plan.Sources[i]
			switch src.Kind {
			case FromSlot:
				row := plan.Indices[src.Slot]
				found := false
				for j := 0; j < m.Choices; j++ {
					if l.Row(idx, j) == row {
						found = true
					}
				}
				if !found {
					t.Fatalf("position %d (record %d) routed to slot %d row %d, not a copy", i, idx, src.Slot, row)
				}
			case FromDup:
				if src.Dup >= i || indices[src.Dup] != idx {
					t.Fatalf("position %d bad dup %d", i, src.Dup)
				}
			default:
				t.Fatalf("position %d unexpected source %v with nil cache", i, src.Kind)
			}
		}
	}
}

func TestPlanBatchSpendsSideInformation(t *testing.T) {
	m := testManifest(t, 4096, 16)
	l, err := NewLayout(m)
	if err != nil {
		t.Fatal(err)
	}
	indices := []uint64{10, 20, 30, 40, 20}
	cachedSet := map[uint64]bool{20: true, 40: true}
	plan, ok, err := l.PlanBatch(indices, func(i uint64) bool { return cachedSet[i] })
	if err != nil || !ok {
		t.Fatalf("plan failed: ok=%v err=%v", ok, err)
	}
	if plan.CacheHits != 2 {
		t.Fatalf("CacheHits = %d, want 2", plan.CacheHits)
	}
	if plan.Sources[1].Kind != FromCache || plan.Sources[3].Kind != FromCache {
		t.Fatalf("cached positions not FromCache: %+v", plan.Sources)
	}
	if plan.Sources[4].Kind != FromDup || plan.Sources[4].Dup != 1 {
		t.Fatalf("duplicate of cached record not FromDup: %+v", plan.Sources[4])
	}
	if plan.Real != 2 {
		t.Fatalf("Real = %d, want 2 (records 10 and 30)", plan.Real)
	}
	if len(plan.Indices) != m.QueriesPerBatch() {
		t.Fatalf("cache hits changed the plan shape: %d slots", len(plan.Indices))
	}
}

func TestPlanBatchOverCapFallsBack(t *testing.T) {
	m := testManifest(t, 4096, 16)
	l, err := NewLayout(m)
	if err != nil {
		t.Fatal(err)
	}
	big := make([]uint64, m.MaxBatch+1)
	for i := range big {
		big[i] = uint64(i)
	}
	if _, ok, err := l.PlanBatch(big, nil); err != nil || ok {
		t.Fatalf("over-cap batch: ok=%v err=%v, want not-codeable", ok, err)
	}
}

func TestPlanBatchMatchingUsesAugmentingPaths(t *testing.T) {
	// Find three records sharing one contested bucket arrangement where
	// greedy-only assignment could fail but augmenting paths succeed:
	// with r=2 and C buckets, any 2 records whose candidate sets
	// overlap in one bucket must still both place.
	m := testManifest(t, 4096, 8)
	l, err := NewLayout(m)
	if err != nil {
		t.Fatal(err)
	}
	byPair := map[[2]int][]uint64{}
	for i := uint64(0); i < m.NumRecords; i++ {
		c := m.Candidates(i)
		key := [2]int{c[0], c[1]}
		if len(byPair[key]) < 2 {
			byPair[key] = append(byPair[key], i)
		}
	}
	for pair, recs := range byPair {
		if len(recs) < 2 {
			continue
		}
		// Two records on the same bucket pair saturate it exactly; both
		// must be placed with zero overflow.
		plan, ok, err := l.PlanBatch(recs[:2], nil)
		if err != nil || !ok {
			t.Fatalf("pair %v: ok=%v err=%v", pair, ok, err)
		}
		if plan.Real != 2 {
			t.Fatalf("pair %v: placed %d of 2", pair, plan.Real)
		}
		for _, src := range plan.Sources {
			if src.Slot >= m.Buckets {
				t.Fatalf("pair %v: spilled to overflow despite free alternate copies", pair)
			}
		}
		break
	}
}
