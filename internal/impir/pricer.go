// Package impir prices the paper's contribution: the IM-PIR server,
// which partitions multi-server PIR query processing between the host
// CPU (DPF key evaluation, AES-NI accelerated) and PIM DPUs (the
// memory-bound dpXOR scan), per §3 and Algorithm 1 of the paper.
//
// The one server engine (internal/engine) answers every query — expand
// on the host, then xorop.Scan, which computes exactly the XOR of
// selected records that the DPUs' subresults fold to — and this
// package is its PIM Pricer. Layout places the database on the DPUs;
// Price replays the pass's cost with pim.ReplayCost: the
// selectors split into fused groups of up to the cluster batch width,
// and each group is priced as the selector scatter, one dpXOR launch,
// the subresult gather and the host fold (➌–➏) that the tasklet
// simulator charges for it on a DPU cluster. The simulator itself runs
// in internal/pim's tests, as the oracle the replay is held to. The DPUs
// form a single cluster holding the database sharded across all of
// them, or C clusters each holding a full replica, over which a pass's
// groups fan out.
package impir

import (
	"errors"
	"fmt"
	"sync/atomic"

	"github.com/impir/impir/internal/database"
	"github.com/impir/impir/internal/dpf"
	"github.com/impir/impir/internal/engine"
	"github.com/impir/impir/internal/hostmodel"
	"github.com/impir/impir/internal/pim"
)

// Config configures the modeled IM-PIR server.
type Config struct {
	// PIM is the simulated PIM machine. Zero value means pim.DefaultConfig.
	PIM pim.Config
	// DPUs is how many DPUs the engine uses (0 = all). The paper uses
	// 2048 of the machine's 2560.
	DPUs int
	// Clusters divides the DPUs into equal clusters, each holding a full
	// database replica (§5.4). 0 or 1 means a single cluster sharding
	// the DB across all DPUs.
	Clusters int
	// EvalWorkers is the host thread count for DPF evaluation: a lone
	// key gets all of them, wider passes one per key. 0 means 8.
	EvalWorkers int
	// Host models the PIM server's host CPU for modeled durations. Zero
	// value means hostmodel.PIMHost.
	Host hostmodel.Model
}

// DefaultConfig returns the paper's evaluation configuration: 2048 DPUs,
// one cluster, 16-tasklet DPUs, subtree-parallel host evaluation.
func DefaultConfig() Config {
	return Config{
		PIM:         pim.DefaultConfig(),
		DPUs:        2048,
		Clusters:    1,
		EvalWorkers: 8,
		Host:        hostmodel.PIMHost(),
	}
}

func (c Config) withDefaults() Config {
	if c.PIM.Ranks == 0 && c.PIM.DPUsPerRank == 0 {
		c.PIM = pim.DefaultConfig()
	}
	if c.DPUs == 0 {
		c.DPUs = c.PIM.NumDPUs()
	}
	if c.Clusters == 0 {
		c.Clusters = 1
	}
	if c.EvalWorkers == 0 {
		c.EvalWorkers = 8
	}
	if c.Host.Threads == 0 {
		c.Host = hostmodel.PIMHost()
	}
	return c
}

func (c Config) validate() error {
	var errs []error
	if err := c.PIM.Validate(); err != nil {
		errs = append(errs, err)
	}
	if c.DPUs < 1 || c.DPUs > c.PIM.NumDPUs() {
		errs = append(errs, fmt.Errorf("impir: DPUs %d outside [1,%d]", c.DPUs, c.PIM.NumDPUs()))
	}
	if c.Clusters < 1 {
		errs = append(errs, fmt.Errorf("impir: Clusters %d must be ≥ 1", c.Clusters))
	}
	if c.Clusters >= 1 && c.DPUs >= 1 && c.DPUs%c.Clusters != 0 {
		errs = append(errs, fmt.Errorf("impir: DPUs %d not divisible by Clusters %d", c.DPUs, c.Clusters))
	}
	if c.EvalWorkers < 1 {
		errs = append(errs, fmt.Errorf("impir: EvalWorkers %d must be ≥ 1", c.EvalWorkers))
	}
	if err := c.Host.Validate(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// Pricer prices passes on the PIM machine. Concurrent passes may price
// at once: each only reads the layout, and its modeled makespan charges
// the clusters as if the pass had them to itself.
type Pricer struct {
	cfg Config
	// clusters lay the database out on the DPUs: the whole of it per
	// cluster, sharded across the cluster's DPUs in 64-record multiples.
	clusters []pim.Geometry
	// width is the widest fused group one dpXOR launch carries, bounded
	// by per-DPU WRAM and the MRAM selector/output regions sized at load
	// time. 1 means fusion is unavailable.
	width int
	rr    atomic.Uint64 // round-robin first cluster of each pass
}

// NewPricer builds a pricer for the configured PIM machine.
func NewPricer(cfg Config) (*Pricer, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Pricer{cfg: cfg}, nil
}

// Name implements engine.Pricer.
func (p *Pricer) Name() string { return "IM-PIR" }

// Schedule runs the paper's host evaluation (§3.2): a lone key with all
// EvalWorkers cooperating on its subtrees, a wider pass one worker per
// key. The host scan takes the host model's threads.
func (p *Pricer) Schedule(int) engine.Schedule {
	return engine.Schedule{
		ExpandWorkers: p.cfg.EvalWorkers,
		Strategy:      dpf.StrategySubtree,
		ScanThreads:   p.cfg.Host.Threads,
	}
}

// Layout lays the database's N records out across every cluster's DPUs: each
// DPU's share, the fused batch width, and whether the chunks stay
// resident in MRAM (§3.3 "Database preloading", a one-time cost excluded
// from query latency as in the paper, §5.1) or stream through it pass by
// pass. The engine keeps the database on the host, where passes scan it.
func (p *Pricer) Layout(db *database.DB) error {
	n, recordSize := db.NumRecords(), db.RecordSize()
	if recordSize > pim.DMAMaxTransfer {
		return fmt.Errorf("impir: record size %d exceeds the %d-byte DMA limit", recordSize, pim.DMAMaxTransfer)
	}

	dpusPerCluster := p.cfg.DPUs / p.cfg.Clusters
	recordsPerDPU := (n + dpusPerCluster - 1) / dpusPerCluster
	recordsPerDPU = (recordsPerDPU + 63) / 64 * 64

	// The fused batch width is bounded first by per-DPU WRAM (the kernel
	// keeps one partial per tasklet per stream on chip), then by the MRAM
	// room left for B selector streams and B subresults.
	wramBatch := pim.MaxFusedSelectors(p.cfg.PIM, recordSize)

	// Resident ("one-shot", §3.3) when the whole chunk plus selectors fit
	// in MRAM; otherwise fall back to streaming the database through MRAM
	// in batches per query. In both regimes, pick the widest fused batch
	// that still fits — fusion amortises the dominant per-pass costs (the
	// chunk DMA and, in streaming mode, restaging the database), so width
	// beats per-pass capacity.
	maxBatch := 1
	resident := false
	perPass := recordsPerDPU
	for b := wramBatch; b >= 1; b-- {
		if mramFootprint(recordsPerDPU, recordSize, b) <= p.cfg.PIM.MRAMPerDPU {
			maxBatch = b
			resident = true
			break
		}
	}
	if !resident {
		for b := wramBatch; b >= 1; b-- {
			if fit := maxRecordsFitting(p.cfg.PIM.MRAMPerDPU, recordSize, b); fit >= 64 {
				maxBatch = b
				perPass = fit
				break
			}
		}
		if perPass == recordsPerDPU || perPass < 64 {
			return fmt.Errorf("impir: MRAM of %d bytes cannot hold even one 64-record batch of %d-byte records",
				p.cfg.PIM.MRAMPerDPU, recordSize)
		}
	}

	clusters := make([]pim.Geometry, p.cfg.Clusters)
	for ci := range clusters {
		clusters[ci] = pim.Geometry{
			FirstDPU:      ci * dpusPerCluster,
			DPUs:          dpusPerCluster,
			RecordSize:    recordSize,
			RecordsPerDPU: recordsPerDPU,
			PassRecords:   perPass,
		}
	}
	p.clusters = clusters
	p.width = maxBatch
	return nil
}

// mramFootprint is the per-DPU MRAM demand of a chunk of the given size
// carrying `batch` fused selector streams and subresults.
func mramFootprint(records, recordSize, batch int) int {
	return align8(align8(records*recordSize)+batch*(records/8)) + batch*recordSize
}

// maxRecordsFitting returns the largest 64-multiple record count whose
// footprint (at the given fused batch width) fits the MRAM budget.
func maxRecordsFitting(mram, recordSize, batch int) int {
	lo, hi := 0, mram/recordSize/64+1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if mramFootprint(mid*64, recordSize, batch) <= mram {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo * 64
}

func align8(n int) int { return (n + 7) &^ 7 }
