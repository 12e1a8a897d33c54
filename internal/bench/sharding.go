package bench

import (
	"fmt"
	"time"

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
func ShardScaling() *Report {
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
	return r
}
