// Package pim is IM-PIR's cost model of an UPMEM-style processing-in-
// memory system: a host CPU attached to PIM-enabled memory ranks, each
// rank holding DPUs (DRAM Processing Units) with private MRAM, a small
// WRAM scratchpad, and up to 24 hardware tasklets (§2.4 of the paper).
//
// Config holds the hardware constants (DPU clock, pipeline occupancy,
// MRAM DMA bandwidth, rank-parallel host link bandwidth) and turns
// transfer volumes and kernel instruction and DMA counts into modeled
// durations. On top of it sits the model of the central DPU program,
// dpXOR: the selective-XOR scan of a DPU's database chunk with two-stage
// parallel reduction across tasklets (Algorithm 1, lines 28–45, and §3.3).
// ModelCost and ModelCostBatch give its expected per-DPU charges at
// selectivity 1/2, for paper-scale figures that never materialise the
// database; ReplayCost gives the exact per-pass charges of a fused group
// from the cluster's Geometry and the selector words alone.
//
// Where bytes and cost come from: the IM-PIR engine answers a pass with
// one host scan (xorop), which computes exactly what the DPUs would, and
// prices it with ReplayCost. The functional, timed tasklet simulator —
// kernels as real Go code run once per tasklet, every byte flowing
// through MRAM/WRAM buffers under UPMEM's constraints (WRAM capacity, DMA
// alignment and maximum transfer size, no DPU↔DPU communication) — and
// the dpXOR kernel it runs, the executable statement of Algorithm 1, live
// in this package's tests. They are the oracle FuzzReplayCost holds the
// replay to, answer bytes and cost alike, byte for byte and nanosecond
// for nanosecond.
//
// Modeled times describe the configured hardware, not the host the model
// runs on, and are never mixed with measured wall-clock. The paper's
// machine — 20 modules / 2560 DPUs at 350 MHz, of which 2048 are used —
// is DefaultConfig. Tests use small topologies.
package pim

import (
	"errors"
	"fmt"
	"time"
)

// Architectural constants of the UPMEM DPU (cf. §2.4 and the UPMEM SDK).
const (
	// MaxTasklets is the number of hardware threads per DPU.
	MaxTasklets = 24
	// DMAAlign is the required alignment of MRAM↔WRAM DMA transfers.
	DMAAlign = 8
	// DMAMaxTransfer is the largest single MRAM↔WRAM DMA transfer.
	DMAMaxTransfer = 2048
	// pipelineDepth: a single tasklet can issue one instruction every
	// pipelineDepth cycles; ≥ pipelineDepth tasklets saturate the
	// pipeline at one instruction per cycle (hence the paper running 16
	// tasklets, "above 11 is recommended").
	pipelineDepth = 11
)

// Config describes the simulated PIM system topology and hardware
// constants. The zero value is not valid; start from DefaultConfig.
type Config struct {
	// Ranks is the number of PIM-enabled memory ranks.
	Ranks int
	// DPUsPerRank is the number of DPUs per rank (64 on UPMEM: 8 chips
	// of 8 DPUs).
	DPUsPerRank int
	// MRAMPerDPU is each DPU's private main memory in bytes (64 MB).
	MRAMPerDPU int
	// WRAMPerDPU is each DPU's scratchpad in bytes (64 KB), shared by
	// all tasklets.
	WRAMPerDPU int
	// TaskletsPerDPU is the number of software threads launched per DPU
	// (1..MaxTasklets). The paper uses 16.
	TaskletsPerDPU int
	// ClockHz is the DPU clock (350 MHz or 400 MHz).
	ClockHz float64
	// MRAMBandwidth is the per-DPU MRAM↔WRAM DMA bandwidth in bytes/s
	// (700 MB/s at 350 MHz, 800 MB/s at 400 MHz).
	MRAMBandwidth float64
	// HostToDPUBandwidthPerRank is the effective CPU→MRAM copy bandwidth
	// per rank in bytes/s; transfers to distinct ranks proceed in
	// parallel. Full-system aggregates of ~6.7 GB/s over 40 ranks have
	// been measured on real hardware.
	HostToDPUBandwidthPerRank float64
	// DPUToHostBandwidthPerRank is the effective MRAM→CPU copy bandwidth
	// per rank in bytes/s (real systems are asymmetric: ~4.7 GB/s
	// aggregate).
	DPUToHostBandwidthPerRank float64
	// TransferLatency is the fixed software/driver overhead per host
	// transfer operation.
	TransferLatency time.Duration
	// LaunchOverhead is the fixed cost of a kernel launch (binary is
	// assumed preloaded; this covers boot/fault-check rounds).
	LaunchOverhead time.Duration
}

// DefaultConfig returns the paper's evaluation platform (§5.2): 2048 DPUs
// in 32 ranks at 350 MHz with 64 MB MRAM and 16 tasklets each.
func DefaultConfig() Config {
	return Config{
		Ranks:                     32,
		DPUsPerRank:               64,
		MRAMPerDPU:                64 << 20,
		WRAMPerDPU:                64 << 10,
		TaskletsPerDPU:            16,
		ClockHz:                   350e6,
		MRAMBandwidth:             700e6,
		HostToDPUBandwidthPerRank: 85e6,
		DPUToHostBandwidthPerRank: 120e6,
		TransferLatency:           400 * time.Microsecond,
		LaunchOverhead:            1200 * time.Microsecond,
	}
}

// Validate checks the configuration for structural errors.
func (c Config) Validate() error {
	var errs []error
	if c.Ranks < 1 {
		errs = append(errs, fmt.Errorf("pim: Ranks %d must be ≥ 1", c.Ranks))
	}
	if c.DPUsPerRank < 1 {
		errs = append(errs, fmt.Errorf("pim: DPUsPerRank %d must be ≥ 1", c.DPUsPerRank))
	}
	if c.MRAMPerDPU < DMAAlign {
		errs = append(errs, fmt.Errorf("pim: MRAMPerDPU %d too small", c.MRAMPerDPU))
	}
	if c.WRAMPerDPU < DMAAlign {
		errs = append(errs, fmt.Errorf("pim: WRAMPerDPU %d too small", c.WRAMPerDPU))
	}
	if c.TaskletsPerDPU < 1 || c.TaskletsPerDPU > MaxTasklets {
		errs = append(errs, fmt.Errorf("pim: TaskletsPerDPU %d outside [1,%d]", c.TaskletsPerDPU, MaxTasklets))
	}
	if c.ClockHz <= 0 {
		errs = append(errs, errors.New("pim: ClockHz must be positive"))
	}
	if c.MRAMBandwidth <= 0 {
		errs = append(errs, errors.New("pim: MRAMBandwidth must be positive"))
	}
	if c.HostToDPUBandwidthPerRank <= 0 || c.DPUToHostBandwidthPerRank <= 0 {
		errs = append(errs, errors.New("pim: host link bandwidths must be positive"))
	}
	return errors.Join(errs...)
}

// NumDPUs returns the total DPU count.
func (c Config) NumDPUs() int { return c.Ranks * c.DPUsPerRank }

// TotalMRAM returns the aggregate MRAM capacity in bytes.
func (c Config) TotalMRAM() int64 { return int64(c.NumDPUs()) * int64(c.MRAMPerDPU) }

// effectiveIPC returns instructions per cycle for t resident tasklets:
// the in-order pipeline issues one instruction per tasklet every
// pipelineDepth cycles, so throughput scales linearly up to saturation.
func (c Config) effectiveIPC(t int) float64 {
	if t >= pipelineDepth {
		return 1
	}
	return float64(t) / float64(pipelineDepth)
}

// HostToDPUDuration models scattering totalBytes evenly across ranksUsed
// ranks (rank transfers are parallel). This is the formula the tasklet
// simulator of this package's tests charges for Scatter; it lets the
// benchmark harness evaluate paper-scale configurations analytically.
func (c Config) HostToDPUDuration(totalBytes int64, ranksUsed int) time.Duration {
	return c.linkDuration(totalBytes, ranksUsed, c.HostToDPUBandwidthPerRank)
}

// DPUToHostDuration models gathering totalBytes evenly across ranksUsed
// ranks.
func (c Config) DPUToHostDuration(totalBytes int64, ranksUsed int) time.Duration {
	return c.linkDuration(totalBytes, ranksUsed, c.DPUToHostBandwidthPerRank)
}

func (c Config) linkDuration(totalBytes int64, ranksUsed int, perRankBW float64) time.Duration {
	if ranksUsed < 1 {
		ranksUsed = 1
	}
	if ranksUsed > c.Ranks {
		ranksUsed = c.Ranks
	}
	perRank := float64(totalBytes) / float64(ranksUsed)
	return time.Duration(perRank/perRankBW*float64(time.Second)) + c.TransferLatency
}

// KernelDuration models a kernel launch where every DPU executes
// instrCycles instructions and moves dmaBytes over its MRAM↔WRAM DMA —
// the formula the tasklet simulator derives from its counters.
func (c Config) KernelDuration(instrCycles, dmaBytes int64) time.Duration {
	return c.dpuDuration(instrCycles, dmaBytes) + c.LaunchOverhead
}

// dpuDuration converts one DPU's charged instruction and DMA counters
// into time under the pipeline-occupancy model.
func (c Config) dpuDuration(instrCycles, dmaBytes int64) time.Duration {
	computeSec := float64(instrCycles) / (c.ClockHz * c.effectiveIPC(c.TaskletsPerDPU))
	dmaSec := float64(dmaBytes) / c.MRAMBandwidth
	return time.Duration((computeSec + dmaSec) * float64(time.Second))
}

// Cost is the modeled expense of one host-visible PIM operation.
type Cost struct {
	// Modeled is the duration the operation would take on the configured
	// hardware.
	Modeled time.Duration
	// Bytes is the payload volume moved (transfers) or scanned (launch
	// DMA traffic), for bandwidth accounting.
	Bytes int64
}

// Add combines two costs sequentially.
func (c Cost) Add(o Cost) Cost {
	return Cost{Modeled: c.Modeled + o.Modeled, Bytes: c.Bytes + o.Bytes}
}

// Max combines two costs that overlap perfectly in time (parallel
// branches): the duration is the maximum, bytes still accumulate.
func (c Cost) Max(o Cost) Cost {
	d := c.Modeled
	if o.Modeled > d {
		d = o.Modeled
	}
	return Cost{Modeled: d, Bytes: c.Bytes + o.Bytes}
}
