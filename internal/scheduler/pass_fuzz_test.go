package scheduler

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/impir/impir/internal/bitvec"
	"github.com/impir/impir/internal/cpupir"
	"github.com/impir/impir/internal/database"
	"github.com/impir/impir/internal/dpf"
	"github.com/impir/impir/internal/gpupir"
	"github.com/impir/impir/internal/hostmodel"
	"github.com/impir/impir/internal/impir"
	"github.com/impir/impir/internal/pim"
	"github.com/impir/impir/internal/xorop"
)

// fuzzRecords is deliberately not a power of two, so every engine scans
// zero padding beyond the caller's records.
const fuzzRecords = 1500

// passEngines builds one engine of every kind and layout FuzzPass covers.
// All load the same 32-byte hash database except the last two, a CPU and
// a GPU engine over 104-byte records.
func passEngines(t testing.TB) []Engine {
	db, err := database.GenerateHashDB(fuzzRecords, 31)
	if err != nil {
		t.Fatal(err)
	}
	pimConfig := func(clusters, mram int) impir.Config {
		p := pim.DefaultConfig()
		p.Ranks, p.DPUsPerRank = 2, 4
		p.MRAMPerDPU = mram
		p.TaskletsPerDPU = 4
		return impir.Config{PIM: p, DPUs: 8, Clusters: clusters, EvalWorkers: 2, Host: hostmodel.PIMHost()}
	}
	type loader interface {
		Engine
		LoadDatabase(*database.DB) error
	}
	var engines []loader
	add := func(e loader, err error) {
		if err != nil {
			t.Fatal(err)
		}
		engines = append(engines, e)
	}
	add(cpupir.New(cpupir.Config{Threads: 4}))
	add(gpupir.New(gpupir.Config{}))
	add(impir.New(pimConfig(1, 4<<20))) // resident
	add(impir.New(pimConfig(1, 8<<10))) // streaming: a DPU's chunk alone fills its MRAM
	add(impir.New(pimConfig(2, 4<<20))) // two replica clusters
	hashEngines := len(engines)
	// 104-byte records (keyword buckets) give xorop's subset-table scan a
	// record size that is not a power of two.
	add(cpupir.New(cpupir.Config{Threads: 4}))
	add(gpupir.New(gpupir.Config{}))
	wide := make([]byte, fuzzRecords*104)
	rand.New(rand.NewSource(32)).Read(wide)
	wideDB, err := database.FromFlat(wide, 104)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]Engine, len(engines))
	for i, e := range engines {
		load := db
		if i >= hashEngines {
			load = wideDB
		}
		if err := e.LoadDatabase(load); err != nil {
			t.Fatal(err)
		}
		out[i] = e
	}
	return out
}

// FuzzPass is the differential test of the one engine pass: for every
// engine, layout and record size, keys or shares, and widths 1…70
// (beyond the PIM engine's per-cluster fused capacity), Pass must return
// exactly what the unfused oracle computes — one xorop.Accumulate per
// selector over the engine's database.
func FuzzPass(f *testing.F) {
	for e := uint8(0); e < 7; e++ {
		f.Add(e, uint8(0), false, int64(e))
		f.Add(e, uint8(69), e%2 == 0, int64(e+10))
	}
	engines := passEngines(f)
	f.Fuzz(func(t *testing.T, engineRaw, widthRaw uint8, shares bool, seed int64) {
		eng := engines[int(engineRaw)%len(engines)]
		width := int(widthRaw)%70 + 1
		db := eng.Database()
		rng := rand.New(rand.NewSource(seed))

		var in dpf.Batch
		sels := make([]*bitvec.Vector, width)
		for q := range sels {
			if shares {
				sels[q] = bitvec.New(db.NumRecords())
				for i := 0; i < db.NumRecords(); i++ {
					sels[q].SetTo(i, rng.Intn(2) == 1)
				}
				in.Shares = append(in.Shares, sels[q])
				continue
			}
			k, _, err := dpf.Gen(dpf.Params{Domain: db.Domain(), Rand: rng}, uint64(rng.Intn(db.NumRecords())), nil)
			if err != nil {
				t.Fatal(err)
			}
			if sels[q], err = k.EvalFull(dpf.FullEvalOptions{}); err != nil {
				t.Fatal(err)
			}
			in.Keys = append(in.Keys, k)
		}

		got, stats, err := eng.Pass(in)
		if err != nil {
			t.Fatalf("%s width %d: %v", eng.Name(), width, err)
		}
		if len(got) != width || stats.Queries != width {
			t.Fatalf("%s width %d: %d results, stats.Queries %d", eng.Name(), width, len(got), stats.Queries)
		}
		for q, sel := range sels {
			want := make([]byte, db.RecordSize())
			if err := xorop.Accumulate(want, db.Data(), db.RecordSize(), sel.Words()); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got[q], want) {
				t.Fatalf("%s width %d shares=%v query %d: pass %x != oracle %x",
					eng.Name(), width, shares, q, got[q][:8], want[:8])
			}
		}
	})
}
