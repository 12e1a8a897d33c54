package engine_test

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/impir/impir/internal/bitvec"
	"github.com/impir/impir/internal/database"
	"github.com/impir/impir/internal/dpf"
	"github.com/impir/impir/internal/engine"
	"github.com/impir/impir/internal/gpupir"
	"github.com/impir/impir/internal/hostmodel"
	"github.com/impir/impir/internal/impir"
	"github.com/impir/impir/internal/metrics"
	"github.com/impir/impir/internal/naivepir"
	"github.com/impir/impir/internal/pim"
)

// pricer is one machine the table runs the engine under.
type pricer struct {
	name, want string // subtest name, Engine.Name
	new        func() (engine.Pricer, error)
}

var pricers = []pricer{
	{"cpu", "CPU-PIR", func() (engine.Pricer, error) { return engine.NewCPUPricer(4) }},
	{"gpu", "GPU-PIR", func() (engine.Pricer, error) { return gpupir.NewPricer(gpupir.Config{}) }},
	{"pim", "IM-PIR", func() (engine.Pricer, error) {
		// 8 DPUs in 2 ranks, resident in MRAM.
		p := pim.DefaultConfig()
		p.Ranks, p.DPUsPerRank = 2, 4
		p.MRAMPerDPU = 4 << 20
		p.TaskletsPerDPU = 4
		return impir.NewPricer(impir.Config{PIM: p, DPUs: 8, Clusters: 1, EvalWorkers: 2, Host: hostmodel.PIMHost()})
	}},
}

// unloaded builds a fresh engine under pr.
func (pr pricer) unloaded(t *testing.T) *engine.Engine {
	t.Helper()
	p, err := pr.new()
	if err != nil {
		t.Fatal(err)
	}
	return engine.New(p)
}

// replicas loads n engines under pr with byte-identical hash databases
// of the given record count, and returns them with the caller's copy.
func (pr pricer) replicas(t *testing.T, n, records int) ([]*engine.Engine, *database.DB) {
	t.Helper()
	db, err := database.GenerateHashDB(records, 11)
	if err != nil {
		t.Fatal(err)
	}
	engines := make([]*engine.Engine, n)
	for i := range engines {
		engines[i] = pr.unloaded(t)
		if err := engines[i].LoadDatabase(db); err != nil {
			t.Fatal(err)
		}
	}
	return engines, db
}

// retrieve runs the two-server protocol for indices, as width-1 passes
// and as one fused pass on each replica, and returns the fused pass's
// reconstructed records after checking the two agree.
func retrieve(t *testing.T, e0, e1 *engine.Engine, indices ...uint64) [][]byte {
	t.Helper()
	domain := e0.Database().Domain()
	var b0, b1 dpf.Batch
	for _, idx := range indices {
		k0, k1, err := dpf.Gen(dpf.Params{Domain: domain}, idx, nil)
		if err != nil {
			t.Fatal(err)
		}
		b0.Keys, b1.Keys = append(b0.Keys, k0), append(b1.Keys, k1)
	}
	fused := reconstruct(t, e0, e1, b0, b1)
	for q := range indices {
		solo := reconstruct(t, e0, e1, dpf.Batch{Keys: b0.Keys[q : q+1]}, dpf.Batch{Keys: b1.Keys[q : q+1]})
		if !bytes.Equal(solo[0], fused[q]) {
			t.Fatalf("index %d: width-1 pass %x != fused pass %x", indices[q], solo[0][:8], fused[q][:8])
		}
	}
	return fused
}

// reconstruct answers in0 on e0 and in1 on e1 and XORs the answers.
func reconstruct(t *testing.T, e0, e1 *engine.Engine, in0, in1 dpf.Batch) [][]byte {
	t.Helper()
	r0, stats, err := e0.Pass(in0)
	if err != nil {
		t.Fatal(err)
	}
	r1, _, err := e1.Pass(in1)
	if err != nil {
		t.Fatal(err)
	}
	b := in0.Len()
	if stats.Queries != b || stats.Fused != (b > 1) || stats.ModeledLatency <= 0 || stats.WallLatency <= 0 {
		t.Errorf("width-%d pass stats %+v", b, stats)
	}
	for q := range r0 {
		for i := range r0[q] {
			r0[q][i] ^= r1[q][i]
		}
	}
	return r0
}

// randomShares draws width random selector shares over records.
func randomShares(rng *rand.Rand, width, records int) []*bitvec.Vector {
	shares := make([]*bitvec.Vector, width)
	for q := range shares {
		shares[q] = bitvec.New(records)
		for i := range records {
			shares[q].SetTo(i, rng.Intn(2) == 1)
		}
	}
	return shares
}

// TestLoadDatabaseHoldsItsRecords: under every pricer an engine holds
// exactly the records it was loaded with — no padding, whether or not
// the count is a power of two — in storage of its own, so updates to the
// engine and to the caller's database stay apart, and an update naming a
// row beyond the records is refused.
func TestLoadDatabaseHoldsItsRecords(t *testing.T) {
	for _, pr := range pricers {
		for _, n := range []int{5, 8, 700} {
			src, err := database.GenerateHashDB(n, 1)
			if err != nil {
				t.Fatal(err)
			}
			e := pr.unloaded(t)
			if err := e.LoadDatabase(src); err != nil {
				t.Fatal(err)
			}
			own := e.Database()
			if own.NumRecords() != n || !bytes.Equal(own.Data(), src.Data()) {
				t.Fatalf("%s, %d records: engine holds %d records or other bytes", pr.name, n, own.NumRecords())
			}
			fresh := bytes.Repeat([]byte{0xEE}, 32)
			if err := e.ApplyUpdates(map[uint64][]byte{0: fresh}); err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(src.Record(0), fresh) {
				t.Fatalf("%s, %d records: updating the engine changed the caller's database", pr.name, n)
			}
			src.SetRecord(1, fresh)
			if bytes.Equal(own.Record(1), fresh) {
				t.Fatalf("%s, %d records: the caller's write reached the engine", pr.name, n)
			}
			if err := e.ApplyUpdates(map[uint64][]byte{uint64(n): fresh}); err == nil {
				t.Fatalf("%s, %d records: update of row %d accepted", pr.name, n, n)
			}
		}
	}
}

// TestEngine runs the engine's execution cases under every pricer: the
// answers must not depend on which machine prices them.
func TestEngine(t *testing.T) {
	cases := []struct {
		name string
		run  func(*testing.T, pricer)
	}{
		{"name", func(t *testing.T, pr pricer) {
			e := pr.unloaded(t)
			if e.Name() != pr.want {
				t.Errorf("Name() = %q, want %q", e.Name(), pr.want)
			}
			if err := e.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		}},
		{"reconstruction", func(t *testing.T, pr pricer) {
			// 32 records fill less than one selector word; 700 pad to
			// 1024, and index 1000 reads the zero padding.
			for _, tc := range []struct {
				records int
				indices []uint64
			}{
				{32, []uint64{0, 5, 31}},
				{700, []uint64{0, 63, 64, 699, 1000}},
				{1024, []uint64{0, 1, 17, 63, 64, 511, 1023}},
			} {
				engines, db := pr.replicas(t, 2, tc.records)
				got := retrieve(t, engines[0], engines[1], tc.indices...)
				for q, idx := range tc.indices {
					want := make([]byte, db.RecordSize())
					if int(idx) < tc.records {
						want = db.Record(int(idx))
					}
					if !bytes.Equal(got[q], want) {
						t.Fatalf("%d records, index %d: reconstructed %x, want %x", tc.records, idx, got[q][:8], want[:8])
					}
				}
			}
		}},
		{"fused", func(t *testing.T, pr pricer) {
			// Width 70 exceeds the PIM pricer's fused width, so its
			// pass spans several groups.
			const records = 2048
			engines, db := pr.replicas(t, 1, records)
			e := engines[0]
			rng := rand.New(rand.NewSource(2027))
			for _, width := range []int{1, 8, 70} {
				var keys dpf.Batch
				for range width {
					k, _, err := dpf.Gen(dpf.Params{Domain: db.Domain(), Rand: rng}, uint64(rng.Intn(records)), nil)
					if err != nil {
						t.Fatal(err)
					}
					keys.Keys = append(keys.Keys, k)
				}
				for _, in := range []dpf.Batch{keys, {Shares: randomShares(rng, width, records)}} {
					fused, stats, err := e.Pass(in)
					if err != nil {
						t.Fatalf("width %d: %v", width, err)
					}
					if len(fused) != width || stats.Queries != width || stats.Fused != (width > 1) {
						t.Fatalf("width %d: %d answers, stats %+v", width, len(fused), stats)
					}
					for q := range width {
						one := dpf.Batch{}
						if in.Keys != nil {
							one.Keys = in.Keys[q : q+1]
						} else {
							one.Shares = in.Shares[q : q+1]
						}
						solo, _, err := e.Pass(one)
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(fused[q], solo[0]) {
							t.Fatalf("width %d shares=%v query %d: fused %x != unfused %x",
								width, in.Shares != nil, q, fused[q][:8], solo[0][:8])
						}
					}
				}
			}
		}},
		{"shares", func(t *testing.T, pr pricer) {
			engines, db := pr.replicas(t, 2, 256)
			const idx = 200
			q, err := naivepir.Gen(nil, 256, idx, 2)
			if err != nil {
				t.Fatal(err)
			}
			got := reconstruct(t, engines[0], engines[1],
				dpf.Batch{Shares: q.Shares[:1]}, dpf.Batch{Shares: q.Shares[1:]})
			if !bytes.Equal(got[0], db.Record(idx)) {
				t.Fatal("share reconstruction failed")
			}
		}},
		{"rejects", func(t *testing.T, pr pricer) {
			engines, _ := pr.replicas(t, 1, 128)
			e := engines[0]
			wrongDomain, _, err := dpf.Gen(dpf.Params{Domain: 4}, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			for name, in := range map[string]dpf.Batch{
				"empty batch":      {},
				"nil key":          {Keys: []*dpf.Key{nil}},
				"wrong-domain key": {Keys: []*dpf.Key{wrongDomain}},
				"nil share":        {Shares: []*bitvec.Vector{nil}},
				"wrong-size share": {Shares: []*bitvec.Vector{bitvec.New(64)}},
			} {
				if _, _, err := e.Pass(in); err == nil {
					t.Errorf("%s accepted", name)
				}
			}
			if err := e.LoadDatabase(nil); err == nil {
				t.Error("LoadDatabase(nil) succeeded")
			}
			odd, err := database.New(16, 12)
			if err != nil {
				t.Fatal(err)
			}
			if err := pr.unloaded(t).LoadDatabase(odd); err == nil {
				t.Error("LoadDatabase accepted 12-byte records")
			}
		}},
		{"unloaded", func(t *testing.T, pr pricer) {
			e := pr.unloaded(t)
			k, _, err := dpf.Gen(dpf.Params{Domain: 9}, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := e.Pass(dpf.Batch{Keys: []*dpf.Key{k}}); err == nil {
				t.Error("key pass before LoadDatabase succeeded")
			}
			if _, _, err := e.Pass(dpf.Batch{Shares: []*bitvec.Vector{bitvec.New(512)}}); err == nil {
				t.Error("share pass before LoadDatabase succeeded")
			}
			if err := e.ApplyUpdates(map[uint64][]byte{0: make([]byte, 32)}); err == nil {
				t.Error("update before LoadDatabase succeeded")
			}
			if e.Database() != nil {
				t.Error("unloaded engine has a database")
			}
		}},
		{"update", func(t *testing.T, pr pricer) {
			engines, db := pr.replicas(t, 2, 512)
			updates := map[uint64][]byte{}
			for i := range 50 {
				updates[uint64(i*10+7)] = bytes.Repeat([]byte{byte(i + 1)}, 32)
			}
			for _, e := range engines {
				if err := e.ApplyUpdates(updates); err != nil {
					t.Fatal(err)
				}
			}
			// 137 is updated; 136 and 138 are its untouched neighbours.
			got := retrieve(t, engines[0], engines[1], 136, 137, 138, 497)
			for q, want := range [][]byte{db.Record(136), updates[137], db.Record(138), updates[497]} {
				if !bytes.Equal(got[q], want) {
					t.Fatalf("query %d after update: %x, want %x", q, got[q][:4], want[:4])
				}
			}

			e := engines[0]
			orig := bytes.Clone(e.Database().Record(5))
			for name, bad := range map[string]map[uint64][]byte{
				"empty update":       nil,
				"index ^0":           {^uint64(0): make([]byte, 32)},
				"index 1<<20":        {1 << 20: make([]byte, 32)},
				"short record":       {0: make([]byte, 16)},
				"partly bad updates": {5: bytes.Repeat([]byte{0xFF}, 32), 1 << 20: make([]byte, 32)},
			} {
				if err := e.ApplyUpdates(bad); err == nil {
					t.Errorf("%s accepted", name)
				}
			}
			if !bytes.Equal(e.Database().Record(5), orig) {
				t.Fatal("a rejected update was partly applied")
			}
		}},
	}
	for _, pr := range pricers {
		for _, c := range cases {
			t.Run(pr.name+"/"+c.name, func(t *testing.T) { c.run(t, pr) })
		}
	}
}

// TestBreakdownDominatedByDpXOR: Table 1 — the CPU baseline's modeled
// time is dominated by the dpXOR scan, not DPF evaluation, and it has no
// copy-to-accelerator phase.
func TestBreakdownDominatedByDpXOR(t *testing.T) {
	engines, db := pricers[0].replicas(t, 1, 4096)
	k, _, err := dpf.Gen(dpf.Params{Domain: db.Domain()}, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := engines[0].Pass(dpf.Batch{Keys: []*dpf.Key{k}})
	if err != nil {
		t.Fatal(err)
	}
	bd := stats.PerQuery
	if bd.Modeled[metrics.PhaseDpXOR] <= bd.Modeled[metrics.PhaseEval] {
		t.Fatalf("dpXOR modeled %v not dominant over Eval %v",
			bd.Modeled[metrics.PhaseDpXOR], bd.Modeled[metrics.PhaseEval])
	}
	if bd.Modeled[metrics.PhaseCopyToPIM] != 0 {
		t.Error("CPU baseline has a copy-to-PIM phase")
	}
}

// TestCPUPricerSchedule: the baseline runs a lone query on one thread
// and a wider pass on every worker, 32 by default.
func TestCPUPricerSchedule(t *testing.T) {
	if _, err := engine.NewCPUPricer(-1); err == nil {
		t.Error("NewCPUPricer accepted negative threads")
	}
	p, err := engine.NewCPUPricer(0)
	if err != nil {
		t.Fatal(err)
	}
	for width, want := range map[int]int{1: 1, 8: 32} {
		if s := p.Schedule(width); s.ExpandWorkers != want || s.ScanThreads != want || s.Strategy != dpf.StrategyMemoryBounded {
			t.Errorf("width-%d schedule %+v, want %d memory-bounded threads", width, s, want)
		}
	}
}

// TestPassAllocs pins the allocations of one pass under each pricer, so
// per-thread or per-DPU staging cannot creep onto the serving path. The
// CPU and GPU rows pass keys over 1024 × 32 B. The PIM row is the
// benchmark's batch_pim pass: 64 DPUs, 65536 × 256 B, 8 shares; its
// bound covers the answers, the scan's subset table, the replay's
// per-group cost slices and the makespan schedule, where anything per
// DPU would add at least 64.
func TestPassAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector perturbs allocation counts")
	}
	small, err := database.GenerateHashDB(1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]*dpf.Key, 8)
	for i := range keys {
		if keys[i], _, err = dpf.Gen(dpf.Params{Domain: small.Domain()}, uint64(i*100), nil); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(31))
	flat := make([]byte, 65536*256)
	rng.Read(flat)
	large, err := database.FromFlat(flat, 256)
	if err != nil {
		t.Fatal(err)
	}
	batchPIM := func() (engine.Pricer, error) {
		cfg := impir.DefaultConfig()
		cfg.DPUs = 64
		cfg.PIM.Ranks, cfg.PIM.DPUsPerRank = 1, 64
		return impir.NewPricer(cfg)
	}
	cpu := func() (engine.Pricer, error) { return engine.NewCPUPricer(0) }
	gpu := pricers[1].new
	for _, tc := range []struct {
		name   string
		pricer func() (engine.Pricer, error)
		db     *database.DB
		in     dpf.Batch
		want   float64
	}{
		{"cpu_width_1", cpu, small, dpf.Batch{Keys: keys[:1]}, 8},
		{"cpu_width_8", cpu, small, dpf.Batch{Keys: keys}, 160},
		{"gpu_width_1", gpu, small, dpf.Batch{Keys: keys[:1]}, 8},
		{"gpu_width_8", gpu, small, dpf.Batch{Keys: keys}, 40},
		{"pim_batch_pim", batchPIM, large, dpf.Batch{Shares: randomShares(rng, 8, 65536)}, 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := tc.pricer()
			if err != nil {
				t.Fatal(err)
			}
			e := engine.New(p)
			if err := e.LoadDatabase(tc.db); err != nil {
				t.Fatal(err)
			}
			// AllocsPerRun runs at GOMAXPROCS 1, so the scan takes one worker.
			allocs := testing.AllocsPerRun(20, func() {
				if _, _, err := e.Pass(tc.in); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > tc.want {
				t.Errorf("width-%d pass made %v allocations, want ≤ %v", tc.in.Len(), allocs, tc.want)
			}
		})
	}
}
