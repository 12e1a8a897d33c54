package impir

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"github.com/impir/impir/internal/bitvec"
	"github.com/impir/impir/internal/database"
	"github.com/impir/impir/internal/dpf"
	"github.com/impir/impir/internal/metrics"
	"github.com/impir/impir/internal/xorop"
)

// seededEngine loads records × recordSize seeded bytes on an engine
// built from cfg, and returns it with a share pass of the given width
// over selectors drawn from the same seeded stream.
func seededEngine(tb testing.TB, cfg Config, records, recordSize, width int, seed int64) (*testEngine, dpf.Batch) {
	tb.Helper()
	eng := newEngine(tb, cfg)
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, records*recordSize)
	rng.Read(data)
	db, err := database.FromFlat(data, recordSize)
	if err != nil {
		tb.Fatal(err)
	}
	if err := eng.LoadDatabase(db); err != nil {
		tb.Fatal(err)
	}
	var in dpf.Batch
	for range width {
		v := bitvec.New(records)
		for i := range records {
			v.SetTo(i, rng.Intn(2) == 1)
		}
		in.Shares = append(in.Shares, v)
	}
	return eng, in
}

// batchPIMEngine loads the benchmark's batch_pim geometry: 64 DPUs in one
// rank, one cluster, 65536 × 256-byte records (16 MiB), and returns the
// engine with a width-8 share pass over seeded selectors.
func batchPIMEngine(tb testing.TB) (*testEngine, dpf.Batch) {
	cfg := DefaultConfig()
	cfg.DPUs = 64
	cfg.PIM.Ranks, cfg.PIM.DPUsPerRank = 1, 64
	return seededEngine(tb, cfg, 65536, 256, 8, 31)
}

// keyedBatchPIMEngine loads the batch_pim geometry and returns it with a
// width-8 pass of seeded party-0 DPF keys, so the pass pays host Eval.
func keyedBatchPIMEngine(tb testing.TB) (*testEngine, dpf.Batch) {
	eng, _ := batchPIMEngine(tb)
	rng := rand.New(rand.NewSource(33))
	var in dpf.Batch
	for range 8 {
		k0, _, err := dpf.Gen(dpf.Params{Domain: 16, Rand: rng}, uint64(rng.Intn(65536)), nil)
		if err != nil {
			tb.Fatal(err)
		}
		in.Keys = append(in.Keys, k0)
	}
	return eng, in
}

// streamingEngine loads a 1 MiB database that streams through MRAM: two
// clusters of 6 DPUs on ranks of 8, so the first cluster sits in rank 0
// and the second straddles ranks 0 and 1; each DPU holds 704 records in
// four passes of 192 (the last one 128, and the last DPU's share ragged).
// The width-15 pass exceeds the fused width of 6, so its three groups
// take both clusters, the first cluster twice.
func streamingEngine(tb testing.TB) (*testEngine, dpf.Batch) {
	cfg := DefaultConfig()
	cfg.DPUs, cfg.Clusters = 12, 2
	cfg.PIM.Ranks, cfg.PIM.DPUsPerRank = 2, 8
	cfg.PIM.MRAMPerDPU = 64 << 10
	return seededEngine(tb, cfg, 4096, 256, 15, 32)
}

// TestModeledBatchPIMGolden pins the modeled cost of a pass, phase by
// phase, to the figures the tasklet simulator charged for it (pim.System
// running the dpXOR kernel on every DPU), captured before the replay
// existed: replaying the cost from geometry and selector words must not
// move a single nanosecond of the paper-hardware model. The rows are the
// benchmark's batch_pim pass (resident, one cluster) and a streaming pass
// whose groups span two clusters. The keyed row, captured on the replay,
// pins the schedule of a pass whose groups wait on host Eval.
func TestModeledBatchPIMGolden(t *testing.T) {
	for _, tc := range []struct {
		name     string
		load     func(testing.TB) (*testEngine, dpf.Batch)
		resident bool
		width    int
		modeled  [metrics.NumPhases]time.Duration
		makespan time.Duration
	}{
		{"batch_pim", batchPIMEngine, true, 6, [metrics.NumPhases]time.Duration{
			metrics.PhaseCopyToPIM:  196376,
			metrics.PhaseDpXOR:      1631199,
			metrics.PhaseCopyToHost: 236533,
			metrics.PhaseAggregate:  10239,
		}, 16594794},
		{"keyed_batch_pim", keyedBatchPIMEngine, true, 6, [metrics.NumPhases]time.Duration{
			metrics.PhaseEval:       291271,
			metrics.PhaseCopyToPIM:  196376,
			metrics.PhaseDpXOR:      1630102,
			metrics.PhaseCopyToHost: 236533,
			metrics.PhaseAggregate:  10239,
		}, 16877288},
		{"streaming_2_clusters", streamingEngine, false, 6, [metrics.NumPhases]time.Duration{
			metrics.PhaseCopyToPIM:  2907017,
			metrics.PhaseDpXOR:      1983979,
			metrics.PhaseCopyToHost: 364373,
			metrics.PhaseAggregate:  3840,
		}, 54527338},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, in := tc.load(t)
			if eng.p.clusters[0].Resident() != tc.resident || eng.p.width != tc.width {
				t.Fatalf("layout resident=%v width %d, want resident=%v width %d",
					eng.p.clusters[0].Resident(), eng.p.width, tc.resident, tc.width)
			}
			got, stats, err := eng.Pass(in)
			if err != nil {
				t.Fatal(err)
			}
			sels := make([]*bitvec.Vector, 0, in.Len())
			for _, k := range in.Keys {
				v, err := k.EvalFull(dpf.FullEvalOptions{})
				if err != nil {
					t.Fatal(err)
				}
				sels = append(sels, v)
			}
			sels = append(sels, in.Shares...)
			db := eng.Database()
			for q, sel := range sels {
				want := make([]byte, db.RecordSize())
				if err := xorop.Accumulate(want, db.Data(), db.RecordSize(), sel.Words()); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got[q], want) {
					t.Fatalf("query %d: pass %x != oracle %x", q, got[q][:8], want[:8])
				}
			}
			if stats.PerQuery.Modeled != tc.modeled {
				t.Errorf("per-query modeled breakdown %v, want %v", stats.PerQuery.Modeled, tc.modeled)
			}
			if stats.ModeledLatency != tc.makespan {
				t.Errorf("modeled makespan %d ns, want %d ns", stats.ModeledLatency, tc.makespan)
			}
		})
	}
}

// passAllocs is the most allocations one batch_pim pass may make on one
// scan worker: the answers, the scan's subset table, the replay's
// per-group cost slices and the makespan schedule. Anything per DPU
// would add at least 64.
const passAllocs = 10

// TestPassAllocs pins a batch_pim pass's allocations, so staging buffers
// per DPU cannot creep back onto the serving path.
func TestPassAllocs(t *testing.T) {
	eng, in := batchPIMEngine(t)
	// AllocsPerRun runs at GOMAXPROCS 1, so the scan takes one worker.
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := eng.Pass(in); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > passAllocs {
		t.Fatalf("batch_pim pass made %v allocations, want ≤ %d", allocs, passAllocs)
	}
}

// BenchmarkPassBatchPIM measures one width-8 share pass at the batch_pim
// geometry: the host scan of 16 MiB plus the cost replay.
func BenchmarkPassBatchPIM(b *testing.B) {
	eng, in := batchPIMEngine(b)
	b.SetBytes(eng.Database().SizeBytes())
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, _, err := eng.Pass(in); err != nil {
			b.Fatal(err)
		}
	}
}
