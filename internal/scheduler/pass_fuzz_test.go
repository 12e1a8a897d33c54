package scheduler

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
	"github.com/impir/impir/internal/pim"
	"github.com/impir/impir/internal/xorop"
)

// passEngines builds the one engine under every pricer and layout
// FuzzPass covers, over databases whose record counts are not powers of
// two, so every pass scans fewer records than the 2^d index space its
// selectors span: 1500 × 32 B hash records under every pricer, then
// 1500 × 104 B under the CPU and GPU pricers, then 700 × 32 B and a
// kv_sharded_mixed shard of 12,112 × 104 B under every pricer again.
func passEngines(t testing.TB) []Engine {
	pimConfig := func(clusters, mram int) impir.Config {
		p := pim.DefaultConfig()
		p.Ranks, p.DPUsPerRank = 2, 4
		p.MRAMPerDPU = mram
		p.TaskletsPerDPU = 4
		return impir.Config{PIM: p, DPUs: 8, Clusters: clusters, EvalWorkers: 2, Host: hostmodel.PIMHost()}
	}
	pricers := func(all bool) []engine.Pricer {
		var out []engine.Pricer
		add := func(p engine.Pricer, err error) {
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, p)
		}
		add(engine.NewCPUPricer(4))
		add(gpupir.NewPricer(gpupir.Config{}))
		if all {
			add(impir.NewPricer(pimConfig(1, 4<<20))) // resident
			add(impir.NewPricer(pimConfig(1, 8<<10))) // streaming: a DPU's chunk alone fills its MRAM
			add(impir.NewPricer(pimConfig(2, 4<<20))) // two replica clusters
		}
		return out
	}
	randomDB := func(records, recordSize int, seed int64) *database.DB {
		data := make([]byte, records*recordSize)
		rand.New(rand.NewSource(seed)).Read(data)
		db, err := database.FromFlat(data, recordSize)
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	hashDB, err := database.GenerateHashDB(1500, 31)
	if err != nil {
		t.Fatal(err)
	}
	var out []Engine
	for _, set := range []struct {
		db  *database.DB
		all bool
	}{
		{hashDB, true},
		// 104-byte records (keyword buckets) give xorop's subset-table
		// scan a record size that is not a power of two.
		{randomDB(1500, 104, 32), false},
		{randomDB(700, 32, 33), true},
		{randomDB(12112, 104, 34), true},
	} {
		for _, p := range pricers(set.all) {
			e := engine.New(p)
			if err := e.LoadDatabase(set.db); err != nil {
				t.Fatal(err)
			}
			out = append(out, e)
		}
	}
	return out
}

// FuzzPass is the differential test of the one engine pass: under every
// pricer, layout and record size, keys or shares, and widths 1…70
// (beyond the PIM pricer's per-cluster fused capacity), Pass must return
// exactly what the unfused oracle computes — one xorop.Accumulate per
// selector over the engine's database padded with zero records to its
// 2^d index space. Keys name any index of that space, padding included;
// shares carry random bits beyond the engine's records, and the pass
// must leave them as they were.
func FuzzPass(f *testing.F) {
	for e := uint8(0); e < 7; e++ {
		f.Add(e, uint8(0), false, int64(e))
		f.Add(e, uint8(69), e%2 == 0, int64(e+10))
	}
	// The 700 × 32 B and 12,112 × 104 B engines under every pricer.
	for e := uint8(7); e < 17; e++ {
		f.Add(e, uint8(0), true, int64(e+20))
		f.Add(e, uint8(9), e%2 == 0, int64(e+40))
	}
	engines := passEngines(f)
	f.Fuzz(func(t *testing.T, engineRaw, widthRaw uint8, shares bool, seed int64) {
		eng := engines[int(engineRaw)%len(engines)]
		width := int(widthRaw)%70 + 1
		db := eng.Database()
		padded := db.PadToPowerOfTwo()
		rng := rand.New(rand.NewSource(seed))

		var in dpf.Batch
		sels := make([]*bitvec.Vector, width)
		for q := range sels {
			if shares {
				sels[q] = bitvec.New(padded.NumRecords())
				for i := 0; i < padded.NumRecords(); i++ {
					sels[q].SetTo(i, rng.Intn(2) == 1)
				}
				in.Shares = append(in.Shares, sels[q])
				continue
			}
			k, _, err := dpf.Gen(dpf.Params{Domain: db.Domain(), Rand: rng}, uint64(rng.Intn(padded.NumRecords())), nil)
			if err != nil {
				t.Fatal(err)
			}
			if sels[q], err = k.EvalFull(dpf.FullEvalOptions{}); err != nil {
				t.Fatal(err)
			}
			in.Keys = append(in.Keys, k)
		}
		before := make([]*bitvec.Vector, width)
		for q, sel := range sels {
			before[q] = sel.Clone()
		}

		got, stats, err := eng.Pass(in)
		if err != nil {
			t.Fatalf("%s width %d: %v", eng.Name(), width, err)
		}
		if len(got) != width || stats.Queries != width {
			t.Fatalf("%s width %d: %d results, stats.Queries %d", eng.Name(), width, len(got), stats.Queries)
		}
		for q, sel := range sels {
			if !sel.Equal(before[q]) {
				t.Fatalf("%s width %d shares=%v: the pass changed selector %d", eng.Name(), width, shares, q)
			}
			want := make([]byte, db.RecordSize())
			if err := xorop.Accumulate(want, padded.Data(), db.RecordSize(), sel.Words()); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got[q], want) {
				t.Fatalf("%s %d records width %d shares=%v query %d: pass %x != oracle %x",
					eng.Name(), db.NumRecords(), width, shares, q, got[q][:8], want[:8])
			}
		}
	})
}
