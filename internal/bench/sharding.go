package bench

import (
	"fmt"
	"time"

	"github.com/impir/impir/internal/cluster"
	"github.com/impir/impir/internal/cpupir"
	"github.com/impir/impir/internal/database"
	"github.com/impir/impir/internal/dpf"
	"github.com/impir/impir/internal/metrics"
)

// ShardScaling models the internal/cluster scale-out layer: the same
// total database carved into 1/2/4/8 contiguous row-range shards, each
// shard cohort scanning only its slice. IM-PIR's all-for-one principle
// makes every query a full-replica scan, so the per-shard per-query
// cost must fall with the shard factor — the cross-box analogue of the
// paper's within-box DPU parallelism. The client pays one sub-query per
// shard (all concurrent, latency = slowest shard), so falling per-shard
// scan time is the cluster's end-to-end latency trajectory.
func ShardScaling(opts Options) *Report {
	r := &Report{
		ID:      "Shard scaling",
		Title:   "Horizontally partitioned PIR: per-shard query cost vs shard count (same total DB)",
		Columns: []string{"Shards", "Shard records", "PIM dpXOR (ms)", "PIM total (ms)", "CPU scan (ms)"},
	}
	const totalGiB = 8.0
	total := recordsFor(totalGiB)
	pimM := paperPIM()
	cpuM := paperCPU()

	shardCounts := []int{1, 2, 4, 8}
	var dpxor, pimTotal, cpuScan []time.Duration
	for _, s := range shardCounts {
		n := total / s // total is a power of two, so shards stay padded
		bd := pimM.phases(n)
		cbd := cpuM.phases(n, 1)
		dpxor = append(dpxor, bd.Modeled[metrics.PhaseDpXOR])
		pimTotal = append(pimTotal, bd.TotalModeled())
		cpuScan = append(cpuScan, cbd.TotalModeled())
		r.Rows = append(r.Rows, []string{
			fmt.Sprintf("%d", s), fmt.Sprintf("%d", n),
			fmtMS(bd.Modeled[metrics.PhaseDpXOR]), fmtMS(bd.TotalModeled()), fmtMS(cbd.TotalModeled()),
		})
	}

	decreasing := func(xs []time.Duration) bool {
		for i := 1; i < len(xs); i++ {
			if xs[i] >= xs[i-1] {
				return false
			}
		}
		return true
	}
	r.AddCheck("per-shard dpXOR time decreases with shard count", decreasing(dpxor),
		"1→8 shards: %v → %v", dpxor[0].Round(time.Microsecond), dpxor[len(dpxor)-1].Round(time.Microsecond))
	r.AddCheck("per-shard total query time decreases with shard count", decreasing(pimTotal),
		"1→8 shards: %v → %v", pimTotal[0].Round(time.Microsecond), pimTotal[len(pimTotal)-1].Round(time.Microsecond))
	last := len(shardCounts) - 1
	speedup := float64(cpuScan[0]) / float64(cpuScan[last])
	r.AddCheck("CPU scan speedup tracks the shard factor (scan is linear in shard size)",
		speedup > 0.7*float64(shardCounts[last]),
		"%d shards: %.1fx", shardCounts[last], speedup)
	r.AddNote("model: %g GiB total DB; per-shard cost at N/S records on the paper's PIM and CPU configurations", totalGiB)
	attachShardVerification(r, opts)
	return r
}

// attachShardVerification executes the sharded protocol for real at a
// scaled-down size: the database split by cluster.SplitDB, one CPU
// engine pair per cohort, every cohort answering a well-formed
// sub-query (the owner's real, the rest dummies), reconstruction from
// the owning cohort only — proving the model sits on a working
// partitioned deployment.
func attachShardVerification(r *Report, opts Options) {
	if opts.VerifyRecords <= 0 {
		return
	}
	db, err := database.GenerateHashDB(opts.VerifyRecords, 2026)
	if err != nil {
		r.AddCheck("functional sharded verification", false, "%v", err)
		return
	}
	const target = 7
	want := append([]byte(nil), db.Record(target)...)

	for _, shards := range []int{1, 2, 4} {
		rec, wall, err := shardedRetrieve(db, shards, target)
		if err != nil {
			r.AddCheck(fmt.Sprintf("functional sharded verification (%d shards)", shards), false, "%v", err)
			return
		}
		ok := string(rec) == string(want)
		r.AddCheck(fmt.Sprintf("functional sharded verification (%d shards)", shards), ok,
			"%d records/shard, slowest shard pass %v", db.NumRecords()/shards, wall.Round(time.Microsecond))
	}
}

// shardedRetrieve runs one full sharded retrieval in-process: split,
// plan, per-cohort DPF sub-queries against a two-engine cohort, owner
// reconstruction. Returns the record and the slowest cohort's wall
// time.
func shardedRetrieve(db *database.DB, shards int, target uint64) ([]byte, time.Duration, error) {
	parts, err := cluster.SplitDB(db, shards)
	if err != nil {
		return nil, 0, err
	}
	cohorts := make([][]string, shards)
	for s := range cohorts {
		cohorts[s] = []string{"verify:0", "verify:1"} // placeholder; never dialed
	}
	m, err := cluster.Uniform(uint64(db.NumRecords()), db.RecordSize(), cohorts)
	if err != nil {
		return nil, 0, err
	}
	plan, err := m.PlanQuery(target)
	if err != nil {
		return nil, 0, err
	}

	var rec []byte
	var slowest time.Duration
	for s, part := range parts {
		e0, err := cpupir.New(cpupir.Config{Threads: 2})
		if err != nil {
			return nil, 0, err
		}
		e1, err := cpupir.New(cpupir.Config{Threads: 2})
		if err != nil {
			return nil, 0, err
		}
		if err := e0.LoadDatabase(part); err != nil {
			return nil, 0, err
		}
		if err := e1.LoadDatabase(part.Clone()); err != nil {
			return nil, 0, err
		}
		k0, k1, err := dpf.Gen(dpf.Params{Domain: part.Domain()}, plan.Locals[s], nil)
		if err != nil {
			return nil, 0, err
		}
		start := time.Now()
		r, err := retrieve(e0, e1, k0, k1)
		if err != nil {
			return nil, 0, err
		}
		if wall := time.Since(start); wall > slowest {
			slowest = wall
		}
		if s == plan.Owner {
			rec = r
		}
	}
	return rec, slowest, nil
}
