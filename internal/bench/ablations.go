package bench

import (
	"fmt"
	"time"

	"github.com/impir/impir/internal/dpf"
	"github.com/impir/impir/internal/impir"
	"github.com/impir/impir/internal/pim"
)

// The ablations below probe the design choices §3 argues for, beyond the
// paper's numbered figures: DPU pipeline occupancy (§5.2's "16
// tasklets"), DPF vs naive query encoding (§2.3), the two batch
// evaluation schedules (§3.4), database preloading (§3.3) and aggregate
// MRAM bandwidth (§2.4).

// AblationTasklets sweeps the per-DPU tasklet count through the modeled
// dpXOR kernel, reproducing the pipeline-occupancy rationale for running
// 16 tasklets ("above 11 is recommended", §5.2).
func AblationTasklets() *Report {
	r := &Report{
		ID:      "Ablation A2",
		Title:   "dpXOR kernel time vs DPU tasklet count (pipeline occupancy)",
		Columns: []string{"tasklets", "modeled kernel (ms)", "vs 16 tasklets"},
	}
	const recordsPerDPU = 16384 // 512 KB chunk: the 1 GiB / 2048 DPU point
	cfg := pim.DefaultConfig()
	ref := time.Duration(0)
	durations := make([]time.Duration, 0, 7)
	taskletCounts := []int{1, 2, 4, 8, 11, 16, 24}
	for _, t := range taskletCounts {
		cfg.TaskletsPerDPU = t
		instr, dma := pim.ModelCost(recordsPerDPU, recordSize, t)
		d := cfg.KernelDuration(instr, dma)
		durations = append(durations, d)
		if t == 16 {
			ref = d
		}
	}
	for i, t := range taskletCounts {
		r.Rows = append(r.Rows, []string{
			fmt.Sprintf("%d", t), fmtMS(durations[i]),
			fmt.Sprintf("%.2fx", float64(durations[i])/float64(ref)),
		})
	}
	r.AddCheck("kernel time saturates at ≥ 11 tasklets (§5.2)",
		durations[4] < durations[3] && // 11 beats 8
			float64(durations[6])/float64(durations[5]) > 0.95, // 24 ≈ 16
		"11 tasklets %.2f ms, 16 tasklets %.2f ms, 24 tasklets %.2f ms",
		durations[4].Seconds()*1e3, durations[5].Seconds()*1e3, durations[6].Seconds()*1e3)
	r.AddCheck("single tasklet pays the full pipeline bubble (~11x compute)",
		float64(durations[0]) > 3*float64(durations[5]),
		"1 tasklet is %.1fx the 16-tasklet time",
		float64(durations[0])/float64(durations[5]))
	return r
}

// AblationCommunication compares per-server query sizes of the DPF
// encoding (O(λ log N)) against the naive Figure 2 encoding (O(N)).
func AblationCommunication() *Report {
	r := &Report{
		ID:      "Ablation A3",
		Title:   "Query communication per server: DPF vs naive secret-sharing (§2.3)",
		Columns: []string{"DB records", "DPF key (bytes)", "naive share (bytes)", "naive/DPF"},
	}
	var lastRatio float64
	for _, domain := range []int{16, 20, 25, 30} {
		n := 1 << domain
		dpfBytes := dpf.KeyWireSize(domain)
		naiveBytes := n / 8
		lastRatio = float64(naiveBytes) / float64(dpfBytes)
		r.Rows = append(r.Rows, []string{
			fmt.Sprintf("2^%d", domain),
			fmt.Sprintf("%d", dpfBytes),
			fmt.Sprintf("%d", naiveBytes),
			fmt.Sprintf("%.0fx", lastRatio),
		})
	}
	r.AddCheck("DPF keys are ≥ 10000x smaller at 2^30 records", lastRatio > 1e4,
		"%.0fx", lastRatio)
	r.AddNote("both encodings drive the identical dpXOR scan; internal/naivepir cross-checks the results")
	return r
}

// AblationEvalModes compares the two §3.4 batch-evaluation schedules
// through the modeled pipeline at 1 GiB.
func AblationEvalModes() *Report {
	r := &Report{
		ID:      "Ablation A5",
		Title:   "Batch evaluation scheduling (§3.4): per-key workers vs per-query-parallel",
		Columns: []string{"batch", "per-key workers (QPS)", "per-query-parallel (QPS)"},
	}
	n := recordsFor(1)
	perKey := paperPIM()
	perKey.EvalMode = impir.EvalPerKeyWorkers
	perQuery := paperPIM()
	perQuery.EvalMode = impir.EvalPerQueryParallel

	var convergeHigh, convergeLow float64
	for _, b := range []int{4, 16, 64, 256} {
		mk, _ := perKey.batch(n, b)
		mq, _ := perQuery.batch(n, b)
		r.Rows = append(r.Rows, []string{
			fmt.Sprintf("%d", b), fmtQPS(qps(b, mk)), fmtQPS(qps(b, mq)),
		})
		if b == 256 {
			convergeHigh = qps(b, mq)
			convergeLow = qps(b, mk)
		}
	}
	r.AddCheck("both schedules converge at large batches (same aggregate resources)",
		convergeHigh/convergeLow < 1.4 && convergeLow/convergeHigh < 1.4,
		"batch 256: %.0f vs %.0f QPS", convergeLow, convergeHigh)
	r.AddNote("per-query-parallel fills the pipeline faster at small batches; " +
		"per-key workers avoid intra-eval synchronisation")
	return r
}

// AblationResidentVsBatched quantifies the value of §3.3's database
// preloading by comparing the modeled per-query cost of the resident
// ("one-shot") mode against the streaming fallback that restages the
// database through MRAM on every query.
func AblationResidentVsBatched() *Report {
	r := &Report{
		ID:      "Ablation A6",
		Title:   "Database preloading (§3.3): resident one-shot vs per-query streaming",
		Columns: []string{"DB (GB)", "resident query (ms)", "streamed query (ms)", "penalty"},
	}
	pm := paperPIM()
	cfg := pm.PIM
	var worst float64
	for _, sizeGB := range []float64{1, 4, 16} {
		n := recordsFor(sizeGB)
		bd := pm.phases(n)
		resident := bd.TotalModeled()

		// Streaming adds one full-database CPU→DPU transfer per query.
		staging := cfg.HostToDPUDuration(dbBytes(n), cfg.Ranks)
		streamed := resident + staging

		penalty := float64(streamed) / float64(resident)
		if penalty > worst {
			worst = penalty
		}
		r.Rows = append(r.Rows, []string{
			fmt.Sprintf("%.0f", sizeGB), fmtMS(resident), fmtMS(streamed),
			fmt.Sprintf("%.1fx", penalty),
		})
	}
	r.AddCheck("restaging the DB per query is ruinous (why IM-PIR preloads)",
		worst > 5, "up to %.1fx slower", worst)
	r.AddNote("the engine falls back to streaming automatically when the DB exceeds " +
		"aggregate MRAM, trading this penalty for unbounded database size")
	return r
}

// AblationBandwidthScaling reproduces the §2.4 bandwidth story with a
// STREAM-style probe in the style of the PrIM COPY microbenchmark: every
// DPU DMA-streams 1 MiB of MRAM into WRAM and XOR-folds it at one
// instruction per 8-byte word, so the kernel stays DMA-bound. Per-DPU
// MRAM bandwidth is fixed (≈700 MB/s of DMA, 560 MB/s with the fold), so
// aggregate bandwidth scales linearly to TB/s across the machine — the
// property the CPU's shared memory bus cannot match. Every point is the
// analytic per-DPU charge of pim.Config, the model the tasklet simulator
// in internal/pim's tests derives from its counters.
func AblationBandwidthScaling() *Report {
	r := &Report{
		ID:      "Ablation A7",
		Title:   "Aggregate MRAM bandwidth vs DPU count (§2.4, STREAM-style probe)",
		Columns: []string{"DPUs", "aggregate bandwidth", "source"},
	}
	const perDPUBytes = 1 << 20
	cfg := pim.DefaultConfig()
	const cyclesPerStreamWord = 1
	perDPU := cfg.KernelDuration(perDPUBytes/8*cyclesPerStreamWord, perDPUBytes) - cfg.LaunchOverhead
	bw := make(map[int]float64)
	for _, dpus := range []int{1, 4, 16, 256, 2048, 2560} {
		bw[dpus] = float64(dpus) * perDPUBytes / perDPU.Seconds()
		r.Rows = append(r.Rows, []string{
			fmt.Sprintf("%d", dpus), fmtBW(bw[dpus]), "analytic (same model)",
		})
	}

	scaling := bw[16] / bw[1]
	r.AddCheck("bandwidth scales linearly with DPU count",
		scaling > 14 && scaling < 18,
		"1→16 DPUs: %.0f→%.0f MB/s (%.1fx)", bw[1]/1e6, bw[16]/1e6, scaling)
	r.AddCheck("full machine reaches TB/s aggregate (§2.4: ≈1.8–2 TB/s)",
		bw[2560] > 1.2e12 && bw[2560] < 2.2e12, "%.2f TB/s at 2560 DPUs", bw[2560]/1e12)
	r.AddNote("a dual-socket CPU tops out near 0.06 TB/s of DRAM bandwidth — the ~30x " +
		"gap is the memory-wall argument of §1/§2.4")
	return r
}

func fmtBW(bytesPerSec float64) string {
	switch {
	case bytesPerSec >= 1e12:
		return fmt.Sprintf("%.2f TB/s", bytesPerSec/1e12)
	case bytesPerSec >= 1e9:
		return fmt.Sprintf("%.2f GB/s", bytesPerSec/1e9)
	default:
		return fmt.Sprintf("%.0f MB/s", bytesPerSec/1e6)
	}
}
