// Package hostmodel provides analytic performance models of the paper's
// two host machines (§5.2), used to convert the operation counts of a
// pass (leaves expanded, bytes scanned) into the latencies those
// operations would exhibit on the evaluation hardware.
//
// Rationale: the local machine running this reproduction is neither the
// paper's 32-thread dual-Xeon baseline server nor the PIM server's host,
// so raw wall-clock cannot reproduce the paper's absolute numbers or even
// its ratios. Instead, the server engine (internal/engine) executes the
// real algorithm (bit-exact results, verified by tests) and reports both
// wall-clock and a modeled latency. Two of its pricers model from these
// machine constants: the CPU baseline's (in internal/engine) and the
// host side of the PIM machine's (internal/impir). The constants are
// first-order calibrations from the paper's own measurements (Fig. 3,
// Fig. 10, Table 1): pipelined AES-NI throughput per thread and
// memory-bandwidth-limited database scan throughput.
package hostmodel

import (
	"fmt"
	"time"
)

// Model describes a host CPU for the purposes of the two operations that
// dominate multi-server PIR: GGM tree expansion (AES-bound) and the
// selective-XOR database scan (memory-bandwidth-bound).
type Model struct {
	// Name identifies the machine in reports.
	Name string
	// Threads is the number of hardware threads the PIR server uses.
	Threads int
	// AESBlocksPerSecPerThread is the sustained AES-128 block throughput
	// of one thread using pipelined AES-NI (batched independent blocks).
	AESBlocksPerSecPerThread float64
	// ScanBytesPerSecPerThread is one thread's sustained rate XOR-scanning
	// a streaming database working set (DRAM-bandwidth limited).
	ScanBytesPerSecPerThread float64
	// AggregateScanBytesPerSec caps the total scan bandwidth when many
	// threads stream concurrently (the memory wall of §2.1).
	AggregateScanBytesPerSec float64
}

// CPUPIRBaseline models the paper's baseline server: 2× 16-core Xeon
// E5-2683 v4 @ 2.10 GHz with hyper-threading (32 threads used), 40 MB LLC
// per socket, 128 GB DDR4. Calibrated against Fig. 3(a) (a single-query
// dpXOR over 4 GB takes ≈ 2–3 s on one thread) and Table 1 (dpXOR ≈ 83%
// of query time under batch load).
func CPUPIRBaseline() Model {
	return Model{
		Name:                     "cpu-pir-baseline (2x E5-2683v4, AVX2+AES-NI)",
		Threads:                  32,
		AESBlocksPerSecPerThread: 4.5e8,
		ScanBytesPerSecPerThread: 2.6e9,
		AggregateScanBytesPerSec: 61e9,
	}
}

// PIMHost models the UPMEM server's host CPU: 2× 8-core Xeon Silver 4110
// @ 2.10 GHz with hyper-threading. Only its AES throughput matters — the
// scan runs on the DPUs.
func PIMHost() Model {
	return Model{
		Name:                     "pim-host (2x Xeon Silver 4110, AES-NI)",
		Threads:                  32,
		AESBlocksPerSecPerThread: 4.5e8,
		ScanBytesPerSecPerThread: 1.6e9,
		AggregateScanBytesPerSec: 40e9,
	}
}

// Validate checks the model's constants.
func (m Model) Validate() error {
	if m.Threads < 1 {
		return fmt.Errorf("hostmodel: Threads %d must be ≥ 1", m.Threads)
	}
	if m.AESBlocksPerSecPerThread <= 0 || m.ScanBytesPerSecPerThread <= 0 || m.AggregateScanBytesPerSec <= 0 {
		return fmt.Errorf("hostmodel: throughput constants must be positive")
	}
	return nil
}

// EvalDuration models a full-domain DPF evaluation over 2^domain leaves
// using the given number of threads on this machine. The model charges the
// paper baseline's full-depth GGM evaluation: every internal node (≈ N of
// them for N leaves) is expanded with two AES blocks, so ≈ 2N blocks total.
// The shipped dpf evaluator terminates the tree 7 levels early and costs
// ≈ 3N/128 blocks; the model keeps the paper's figure on purpose so the
// modeled paper-machine numbers stay comparable with the paper.
func (m Model) EvalDuration(leaves uint64, threads int) time.Duration {
	if threads < 1 {
		threads = 1
	}
	if threads > m.Threads {
		threads = m.Threads
	}
	blocks := 2 * float64(leaves)
	sec := blocks / (m.AESBlocksPerSecPerThread * float64(threads))
	return time.Duration(sec * float64(time.Second))
}

// ScanDuration models one thread's selective-XOR scan over dbBytes while
// `concurrent` scans are in flight machine-wide (batch processing): each
// thread gets the per-thread rate until the aggregate memory bandwidth
// saturates.
func (m Model) ScanDuration(dbBytes int64, concurrent int) time.Duration {
	if concurrent < 1 {
		concurrent = 1
	}
	perThread := m.ScanBytesPerSecPerThread
	if cap := m.AggregateScanBytesPerSec / float64(concurrent); cap < perThread {
		perThread = cap
	}
	sec := float64(dbBytes) / perThread
	return time.Duration(sec * float64(time.Second))
}

// FusedScanDuration models a fused multi-selector scan: one streaming
// pass over dbBytes that accumulates `batch` results along the way.
// The contention story changes from ScanDuration's: memory traffic is
// paid ONCE (the whole machine cooperates on one stream, so the rate is
// min(threads × per-thread, aggregate)), while XOR ALU work scales with
// the batch. Each selector share sets ~half the bits, so the fused pass
// XORs batch × dbBytes/2; cache-resident XOR on streamed lines runs at
// ~4× the DRAM-bound scan rate per thread. The pass is whichever side of
// the roofline binds: max(memory-stream time, XOR time). At small B the
// memory term dominates and per-query cost falls ~1/B; once B× XOR work
// exceeds the stream time the pass turns ALU-bound and flattens.
func (m Model) FusedScanDuration(dbBytes int64, batch, threads int) time.Duration {
	if batch < 1 {
		batch = 1
	}
	if threads < 1 {
		threads = 1
	}
	if threads > m.Threads {
		threads = m.Threads
	}
	streamRate := m.ScanBytesPerSecPerThread * float64(threads)
	if streamRate > m.AggregateScanBytesPerSec {
		streamRate = m.AggregateScanBytesPerSec
	}
	memSec := float64(dbBytes) / streamRate
	xorBytes := float64(batch) * float64(dbBytes) / 2
	xorRate := 4 * m.ScanBytesPerSecPerThread * float64(threads)
	xorSec := xorBytes / xorRate
	sec := memSec
	if xorSec > sec {
		sec = xorSec
	}
	return time.Duration(sec * float64(time.Second))
}

// XORFoldDuration models XOR-folding n buffers of size bytes each on the
// host (subresult aggregation) — a trivially bandwidth-bound operation.
func (m Model) XORFoldDuration(n int, size int) time.Duration {
	sec := float64(n) * float64(size) / m.ScanBytesPerSecPerThread
	return time.Duration(sec * float64(time.Second))
}

// KeyGenDuration models client-side DPF key generation: O(log N) PRG
// expansions — microseconds, included for Fig. 3(a)'s Gen bars.
func (m Model) KeyGenDuration(domain int) time.Duration {
	blocks := float64(2 * (domain + 1))
	sec := blocks / m.AESBlocksPerSecPerThread
	// Key generation also samples randomness and allocates; a fixed
	// overhead keeps the modeled value in the microsecond range the
	// paper reports (Gen ≈ 1000× cheaper than Eval).
	return time.Duration(sec*float64(time.Second)) + 2*time.Microsecond
}
