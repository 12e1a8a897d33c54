package impir

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"github.com/impir/impir/internal/bitvec"
	"github.com/impir/impir/internal/database"
	"github.com/impir/impir/internal/dpf"
	"github.com/impir/impir/internal/hostmodel"
	"github.com/impir/impir/internal/metrics"
	"github.com/impir/impir/internal/pim"
)

// testConfig returns a small engine configuration: 8 DPUs in 2 ranks.
func testConfig(clusters int) Config {
	p := pim.DefaultConfig()
	p.Ranks = 2
	p.DPUsPerRank = 4
	p.MRAMPerDPU = 4 << 20
	p.TaskletsPerDPU = 4
	return Config{
		PIM:         p,
		DPUs:        8,
		Clusters:    clusters,
		EvalWorkers: 2,
		Host:        hostmodel.PIMHost(),
	}
}

func newLoadedEngine(t *testing.T, cfg Config, numRecords int) (*Engine, *database.DB) {
	t.Helper()
	eng, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	db, err := database.GenerateHashDB(numRecords, 42)
	if err != nil {
		t.Fatalf("GenerateHashDB: %v", err)
	}
	if err := eng.LoadDatabase(db); err != nil {
		t.Fatalf("LoadDatabase: %v", err)
	}
	return eng, db
}

func genKeys(t *testing.T, domain int, index uint64) (*dpf.Key, *dpf.Key) {
	t.Helper()
	k0, k1, err := dpf.Gen(dpf.Params{Domain: domain}, index, nil)
	if err != nil {
		t.Fatalf("dpf.Gen: %v", err)
	}
	return k0, k1
}

// query answers one key as a width-1 pass.
func query(e *Engine, key *dpf.Key) ([]byte, metrics.Breakdown, error) {
	return pass1(e, dpf.Batch{Keys: []*dpf.Key{key}})
}

// queryShare answers one selector share as a width-1 pass.
func queryShare(e *Engine, share *bitvec.Vector) ([]byte, metrics.Breakdown, error) {
	return pass1(e, dpf.Batch{Shares: []*bitvec.Vector{share}})
}

func pass1(e *Engine, in dpf.Batch) ([]byte, metrics.Breakdown, error) {
	results, stats, err := e.Pass(in)
	if err != nil {
		return nil, metrics.Breakdown{}, err
	}
	return results[0], stats.PerQuery, nil
}

// queryBothServers runs the same query on two replica engines and
// reconstructs the record, the full two-server protocol.
func queryBothServers(t *testing.T, e0, e1 *Engine, domain int, index uint64) []byte {
	t.Helper()
	k0, k1 := genKeys(t, domain, index)
	r0, _, err := query(e0, k0)
	if err != nil {
		t.Fatalf("server 0 query: %v", err)
	}
	r1, _, err := query(e1, k1)
	if err != nil {
		t.Fatalf("server 1 query: %v", err)
	}
	out := make([]byte, len(r0))
	for i := range out {
		out[i] = r0[i] ^ r1[i]
	}
	return out
}

func TestEndToEndReconstruction(t *testing.T) {
	const numRecords = 1 << 10
	e0, db := newLoadedEngine(t, testConfig(1), numRecords)
	e1, _ := newLoadedEngine(t, testConfig(1), numRecords)
	domain := db.Domain()

	for _, idx := range []uint64{0, 1, 63, 64, 511, numRecords - 1} {
		got := queryBothServers(t, e0, e1, domain, idx)
		want := db.Record(int(idx))
		if !bytes.Equal(got, want) {
			t.Fatalf("index %d: reconstructed %x, want %x", idx, got[:8], want[:8])
		}
	}
}

func TestEndToEndNonPowerOfTwoDB(t *testing.T) {
	// 700 records → padded to 1024; queries beyond 699 target padding.
	const numRecords = 700
	e0, db := newLoadedEngine(t, testConfig(1), numRecords)
	e1, _ := newLoadedEngine(t, testConfig(1), numRecords)
	domain := e0.Database().Domain()

	got := queryBothServers(t, e0, e1, domain, 699)
	if !bytes.Equal(got, db.Record(699)) {
		t.Fatal("reconstruction failed on non-power-of-two database")
	}
	// A padding index must reconstruct to zeros.
	got = queryBothServers(t, e0, e1, domain, 1000)
	if !bytes.Equal(got, make([]byte, 32)) {
		t.Fatal("padding record is not zero")
	}
}

func TestClusteredReconstruction(t *testing.T) {
	for _, clusters := range []int{1, 2, 4} {
		cfg := testConfig(clusters)
		e0, db := newLoadedEngine(t, cfg, 512)
		e1, _ := newLoadedEngine(t, cfg, 512)
		got := queryBothServers(t, e0, e1, db.Domain(), 137)
		if !bytes.Equal(got, db.Record(137)) {
			t.Fatalf("clusters=%d: reconstruction failed", clusters)
		}
	}
}

func TestSingleServerShareIsNotTheRecord(t *testing.T) {
	// One server's subresult alone must not equal the queried record
	// (with overwhelming probability) — sanity check on privacy.
	e0, db := newLoadedEngine(t, testConfig(1), 256)
	k0, _ := genKeys(t, db.Domain(), 42)
	r0, _, err := query(e0, k0)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(r0, db.Record(42)) {
		t.Fatal("single server share equals the record — query leaked")
	}
}

func TestBreakdownPhases(t *testing.T) {
	e0, db := newLoadedEngine(t, testConfig(1), 1024)
	k0, _ := genKeys(t, db.Domain(), 7)
	_, bd, err := query(e0, k0)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []metrics.Phase{
		metrics.PhaseEval, metrics.PhaseCopyToPIM, metrics.PhaseDpXOR,
		metrics.PhaseCopyToHost, metrics.PhaseAggregate,
	} {
		if bd.Modeled[p] <= 0 {
			t.Errorf("phase %v has no modeled time", p)
		}
	}
	if bd.Modeled[metrics.PhaseGen] != 0 {
		t.Error("server breakdown contains client Gen time")
	}
	if bd.TotalWall() <= 0 {
		t.Error("no wall time recorded")
	}
}

func TestQueryBatch(t *testing.T) {
	for _, clusters := range []int{1, 2} {
		cfg := testConfig(clusters)
		e0, db := newLoadedEngine(t, cfg, 512)
		e1, _ := newLoadedEngine(t, cfg, 512)

		const batch = 9
		indices := make([]uint64, batch)
		keys0 := make([]*dpf.Key, batch)
		keys1 := make([]*dpf.Key, batch)
		for i := range indices {
			indices[i] = uint64((i * 57) % 512)
			keys0[i], keys1[i] = genKeys(t, db.Domain(), indices[i])
		}

		r0, stats0, err := e0.Pass(dpf.Batch{Keys: keys0})
		if err != nil {
			t.Fatalf("clusters=%d: batch server 0: %v", clusters, err)
		}
		r1, _, err := e1.Pass(dpf.Batch{Keys: keys1})
		if err != nil {
			t.Fatalf("batch server 1: %v", err)
		}
		for i := range indices {
			rec := make([]byte, 32)
			copy(rec, r0[i])
			for j := range rec {
				rec[j] ^= r1[i][j]
			}
			if !bytes.Equal(rec, db.Record(int(indices[i]))) {
				t.Fatalf("clusters=%d: batch query %d wrong", clusters, i)
			}
		}
		if stats0.Queries != batch {
			t.Errorf("stats.Queries = %d, want %d", stats0.Queries, batch)
		}
		if stats0.ModeledLatency <= 0 || stats0.WallLatency <= 0 {
			t.Error("batch latencies not positive")
		}
		if stats0.ModeledQPS() <= 0 {
			t.Error("modeled QPS not positive")
		}
	}
}

func TestValidation(t *testing.T) {
	t.Run("bad config", func(t *testing.T) {
		cfg := testConfig(1)
		cfg.DPUs = 1000 // more than the 8 available
		if _, err := New(cfg); err == nil {
			t.Error("New accepted DPUs > system size")
		}
		cfg = testConfig(3) // 8 % 3 != 0
		if _, err := New(cfg); err == nil {
			t.Error("New accepted non-divisible cluster count")
		}
		cfg = testConfig(1)
		cfg.EvalWorkers = -1
		if _, err := New(cfg); err == nil {
			t.Error("New accepted negative EvalWorkers")
		}
	})

	t.Run("query before load", func(t *testing.T) {
		eng, err := New(testConfig(1))
		if err != nil {
			t.Fatal(err)
		}
		k0, _ := genKeys(t, 9, 0)
		if _, _, err := query(eng, k0); err == nil {
			t.Error("pass before LoadDatabase succeeded")
		}
	})

	t.Run("key domain mismatch", func(t *testing.T) {
		eng, _ := newLoadedEngine(t, testConfig(1), 512) // domain 9
		k0, _ := genKeys(t, 10, 0)
		if _, _, err := query(eng, k0); err == nil {
			t.Error("pass accepted mismatched key domain")
		}
	})

	t.Run("nil inputs", func(t *testing.T) {
		eng, _ := newLoadedEngine(t, testConfig(1), 512)
		if _, _, err := query(eng, nil); err == nil {
			t.Error("nil key accepted")
		}
		if err := eng.LoadDatabase(nil); err == nil {
			t.Error("LoadDatabase(nil) succeeded")
		}
		if _, _, err := eng.Pass(dpf.Batch{}); err == nil {
			t.Error("empty pass accepted")
		}
	})

	t.Run("odd record size rejected", func(t *testing.T) {
		eng, err := New(testConfig(1))
		if err != nil {
			t.Fatal(err)
		}
		db, err := database.New(64, 12) // not a multiple of 8
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.LoadDatabase(db); err == nil {
			t.Error("LoadDatabase accepted 12-byte records")
		}
	})

	t.Run("database beyond MRAM falls back to batched mode", func(t *testing.T) {
		cfg := testConfig(1)
		cfg.PIM.MRAMPerDPU = 1 << 12 // 4 KB per DPU
		eng, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		db, err := database.GenerateHashDB(1<<12, 1) // needs 16 KB per DPU
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.LoadDatabase(db); err != nil {
			t.Fatalf("LoadDatabase should stream oversized DBs (§3.3): %v", err)
		}
		if eng.clusters[0].Resident() {
			t.Fatal("oversized DB loaded as resident")
		}
		if eng.clusters[0].Passes() < 2 {
			t.Fatalf("passes = %d, want ≥ 2", eng.clusters[0].Passes())
		}
	})
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.DPUs != 2048 || cfg.Clusters != 1 {
		t.Errorf("DefaultConfig = %d DPUs / %d clusters, want 2048/1", cfg.DPUs, cfg.Clusters)
	}
	if err := cfg.withDefaults().validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestEvalModeString(t *testing.T) {
	if EvalPerKeyWorkers.String() == "" || EvalPerQueryParallel.String() == "" || EvalMode(9).String() == "" {
		t.Error("EvalMode.String returned empty")
	}
}

// TestClusterThroughputImproves: a pass wider than one cluster's batch
// capacity hands its fused groups to the replica clusters in turn, so
// with four clusters the modeled makespan is well below the serial sum of
// the groups' PIM phases, and one cluster's is not (Take-away 5 —
// replica parallelism). And one wide cluster fuses the whole batch into
// a single database pass, so it must beat answering the same keys one
// pass each.
func TestClusterThroughputImproves(t *testing.T) {
	const batch, capacity = 16, 4
	keysFor := func(domain int) []*dpf.Key {
		keys := make([]*dpf.Key, batch)
		for i := range keys {
			keys[i], _ = genKeys(t, domain, uint64(i*100)%2048)
		}
		return keys
	}
	spread := func(clusters int) (makespan, serialPIM time.Duration) {
		cfg := testConfig(clusters)
		cfg.EvalWorkers = 8
		eng, db := newLoadedEngine(t, cfg, 2048)
		eng.width = capacity // MRAM was laid out for the wider batch
		_, stats, err := eng.Pass(dpf.Batch{Keys: keysFor(db.Domain())})
		if err != nil {
			t.Fatal(err)
		}
		scan := stats.PerQuery.TotalModeled() - stats.PerQuery.Modeled[metrics.PhaseEval]
		return stats.ModeledLatency, scan * batch
	}
	if makespan, serial := spread(4); makespan >= serial/2 {
		t.Fatalf("4 clusters: makespan %v not below half the serial PIM sum %v", makespan, serial)
	}
	if makespan, serial := spread(1); makespan < serial {
		t.Fatalf("1 cluster: makespan %v below the serial PIM sum %v", makespan, serial)
	}

	cfg := testConfig(1)
	cfg.EvalWorkers = 8
	one, db := newLoadedEngine(t, cfg, 2048)
	keys := keysFor(db.Domain())
	_, fused, err := one.Pass(dpf.Batch{Keys: keys})
	if err != nil {
		t.Fatal(err)
	}
	var solo time.Duration
	for _, k := range keys {
		_, st, err := one.Pass(dpf.Batch{Keys: []*dpf.Key{k}})
		if err != nil {
			t.Fatal(err)
		}
		solo += st.ModeledLatency
	}
	if !fused.Fused || fused.ModeledLatency >= solo {
		t.Fatalf("fused single cluster %v (fused=%v) not below %v of per-query passes",
			fused.ModeledLatency, fused.Fused, solo)
	}
}

// TestModeledMakespanSchedule checks the pipeline model directly.
func TestModeledMakespanSchedule(t *testing.T) {
	ms := func(xs ...int) []time.Duration {
		out := make([]time.Duration, len(xs))
		for i, x := range xs {
			out[i] = time.Duration(x) * time.Millisecond
		}
		return out
	}

	t.Run("single worker single cluster is serial", func(t *testing.T) {
		got := ModeledMakespan(EvalPerKeyWorkers, 1, 1, ms(10, 10), ms(5, 5))
		// eval q0 at 10, pim done 15; eval q1 at 20, pim 25.
		if got != 25*time.Millisecond {
			t.Fatalf("makespan = %v, want 25ms", got)
		}
	})

	t.Run("pipeline overlaps eval and pim", func(t *testing.T) {
		got := ModeledMakespan(EvalPerQueryParallel, 4, 1, ms(10, 10, 10), ms(10, 10, 10))
		// evals finish 10,20,30; pim runs 10-20, 20-30, 30-40.
		if got != 40*time.Millisecond {
			t.Fatalf("makespan = %v, want 40ms", got)
		}
	})

	t.Run("clusters drain queue in parallel", func(t *testing.T) {
		serial := ModeledMakespan(EvalPerKeyWorkers, 4, 1, ms(1, 1, 1, 1), ms(10, 10, 10, 10))
		parallel := ModeledMakespan(EvalPerKeyWorkers, 4, 4, ms(1, 1, 1, 1), ms(10, 10, 10, 10))
		if serial <= parallel {
			t.Fatalf("serial %v should exceed parallel %v", serial, parallel)
		}
		if parallel != 11*time.Millisecond {
			t.Fatalf("parallel makespan = %v, want 11ms", parallel)
		}
	})
}

// TestQueryShareBatch: a pass of shares must agree with width-1 share
// passes and reject malformed inputs.
func TestQueryShareBatch(t *testing.T) {
	const numRecords = 1024
	eng, _ := newLoadedEngine(t, testConfig(2), numRecords)

	rng := rand.New(rand.NewSource(99))
	const batch = 9
	shares := make([]*bitvec.Vector, batch)
	for q := range shares {
		v := bitvec.New(numRecords)
		for i := 0; i < numRecords; i++ {
			if rng.Intn(2) == 1 {
				v.Set(i)
			}
		}
		shares[q] = v
	}

	got, stats, err := eng.Pass(dpf.Batch{Shares: shares})
	if err != nil {
		t.Fatalf("share pass: %v", err)
	}
	if stats.Queries != batch || !stats.Fused {
		t.Errorf("stats = %+v, want %d fused queries", stats, batch)
	}
	for q, share := range shares {
		want, _, err := queryShare(eng, share)
		if err != nil {
			t.Fatalf("width-1 share pass %d: %v", q, err)
		}
		if !bytes.Equal(got[q], want) {
			t.Fatalf("share %d: batch %x != solo %x", q, got[q][:8], want[:8])
		}
	}

	if _, _, err := eng.Pass(dpf.Batch{}); err == nil {
		t.Error("empty share batch accepted")
	}
	if _, _, err := eng.Pass(dpf.Batch{Shares: []*bitvec.Vector{nil}}); err == nil {
		t.Error("nil share accepted")
	}
	if _, _, err := eng.Pass(dpf.Batch{Shares: []*bitvec.Vector{bitvec.New(64)}}); err == nil {
		t.Error("wrong-length share accepted")
	}
}

func TestEngineName(t *testing.T) {
	eng, err := New(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if eng.Name() != "IM-PIR" {
		t.Errorf("Name() = %q", eng.Name())
	}
	if err := eng.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}
