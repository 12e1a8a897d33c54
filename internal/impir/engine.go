// Package impir implements the paper's contribution: the IM-PIR server
// engine, which partitions multi-server PIR query processing between the
// host CPU (DPF key evaluation, AES-NI accelerated) and PIM DPUs (the
// memory-bound dpXOR scan), per §3 and Algorithm 1 of the paper.
//
// One Engine is one PIR server's compute plane. A two-server deployment
// runs two engines on replicas of the same database; the client XORs
// their subresults to reconstruct the record (package impir at the module
// root wires this together).
//
// Every query runs as one pass (§3.4, Fig. 8): expand (host-side DPF
// evaluation through dpf's shared front end, Alg. 1 ➋), then scan — fused
// groups of up to maxBatch selectors scattered to a DPU cluster, one
// dpXOR launch per group, subresults gathered and folded on the host
// (➌–➏). The DPUs form a single cluster holding the database sharded
// across all of them, or C clusters each holding a full replica, over
// which a pass's groups fan out.
package impir

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/impir/impir/internal/database"
	"github.com/impir/impir/internal/hostmodel"
	"github.com/impir/impir/internal/metrics"
	"github.com/impir/impir/internal/pim"
	"github.com/impir/impir/internal/pimkernel"
	"github.com/impir/impir/internal/xorop"
)

// Config configures an IM-PIR engine.
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

// cluster is one group of DPUs holding a complete database replica (or,
// in batched mode, streaming through it pass by pass).
type cluster struct {
	id     int
	dpuIDs []int
	// recordsPerDPU is B_d: each DPU's share of the database in records,
	// a multiple of 64 so selector words never straddle DPUs.
	recordsPerDPU int
	// layout offsets (identical on every DPU of the cluster).
	selOffset int
	outOffset int
	// maxBatch is the widest fused batch one DPXOR launch on this cluster
	// carries (bounded by per-DPU WRAM and the MRAM selector/output
	// regions sized at load time). 1 means fusion is unavailable.
	maxBatch int
	// resident is true when the whole chunk fits in MRAM and was
	// preloaded (the paper's default "one-shot" mode, §3.3). When false,
	// queries stream the database through MRAM in `passes` batches of
	// perPassRecords records per DPU — the §3.3 adaptation for databases
	// beyond the machine's PIM capacity.
	resident       bool
	passes         int
	perPassRecords int
	// mu serialises use of the cluster's DPUs: hardware executes one
	// kernel per DPU at a time, so concurrent queries (e.g. from
	// concurrent transport connections) queue here rather than
	// double-booking a launch.
	mu sync.Mutex
}

// Engine is an IM-PIR server engine. Passes may run concurrently; cluster
// access is serialised internally the way real hardware serialises
// kernel launches.
type Engine struct {
	cfg      Config
	sys      *pim.System
	db       *database.DB // padded to a power of two
	domain   int
	clusters []*cluster
	rr       atomic.Uint64 // round-robin first cluster of each pass
}

// New builds an engine and its simulated PIM system.
func New(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	sys, err := pim.NewSystem(cfg.PIM)
	if err != nil {
		return nil, err
	}
	return &Engine{cfg: cfg, sys: sys}, nil
}

// Name identifies the engine in benchmark reports.
func (e *Engine) Name() string { return "IM-PIR" }

// Config returns the engine's effective configuration.
func (e *Engine) Config() Config { return e.cfg }

// System exposes the underlying PIM system (tests and the roofline
// instrumentation use it).
func (e *Engine) System() *pim.System { return e.sys }

// Database returns the loaded (padded) database, or nil.
func (e *Engine) Database() *database.DB { return e.db }

// LoadDatabase shards the database across every cluster's DPUs and
// preloads the chunks into MRAM (§3.3 "Database preloading"). Preloading
// is a one-time cost excluded from query latency, as in the paper (§5.1).
func (e *Engine) LoadDatabase(db *database.DB) error {
	if db == nil {
		return errors.New("impir: nil database")
	}
	if db.RecordSize()%8 != 0 || db.RecordSize() > pim.DMAMaxTransfer {
		return fmt.Errorf("impir: record size %d must be a positive multiple of 8 bytes ≤ %d",
			db.RecordSize(), pim.DMAMaxTransfer)
	}
	padded := db.Replica()
	n := padded.NumRecords()
	recordSize := padded.RecordSize()

	dpusPerCluster := e.cfg.DPUs / e.cfg.Clusters
	recordsPerDPU := (n + dpusPerCluster - 1) / dpusPerCluster
	recordsPerDPU = (recordsPerDPU + 63) / 64 * 64

	// The fused batch width is bounded first by per-DPU WRAM (the kernel
	// keeps one partial per tasklet per stream on chip), then by the MRAM
	// room left for B selector streams and B subresults.
	wramBatch := pimkernel.MaxFusedSelectors(e.cfg.PIM, recordSize)

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
		if mramFootprint(recordsPerDPU, recordSize, b) <= e.cfg.PIM.MRAMPerDPU {
			maxBatch = b
			resident = true
			break
		}
	}
	passes := 1
	if !resident {
		for b := wramBatch; b >= 1; b-- {
			if fit := maxRecordsFitting(e.cfg.PIM.MRAMPerDPU, recordSize, b); fit >= 64 {
				maxBatch = b
				perPass = fit
				break
			}
		}
		if perPass == recordsPerDPU || perPass < 64 {
			return fmt.Errorf("impir: MRAM of %d bytes cannot hold even one 64-record batch of %d-byte records",
				e.cfg.PIM.MRAMPerDPU, recordSize)
		}
		passes = (recordsPerDPU + perPass - 1) / perPass
	}

	// MRAM layout: [db chunk | maxBatch selector streams | maxBatch
	// subresults], 8-aligned.
	selOffset := align8(perPass * recordSize)
	outOffset := align8(selOffset + maxBatch*perPass/8)

	clusters := make([]*cluster, e.cfg.Clusters)
	for ci := range clusters {
		c := &cluster{
			id:             ci,
			dpuIDs:         make([]int, dpusPerCluster),
			recordsPerDPU:  recordsPerDPU,
			selOffset:      selOffset,
			outOffset:      outOffset,
			maxBatch:       maxBatch,
			resident:       resident,
			passes:         passes,
			perPassRecords: perPass,
		}
		for i := 0; i < dpusPerCluster; i++ {
			dpuID := ci*dpusPerCluster + i
			c.dpuIDs[i] = dpuID
			if resident {
				if err := e.sys.Preload(dpuID, 0, dbSlice(padded, i*recordsPerDPU, recordsPerDPU)); err != nil {
					return fmt.Errorf("impir: preload cluster %d dpu %d: %w", ci, i, err)
				}
			}
		}
		clusters[ci] = c
	}

	e.db = padded
	e.domain = padded.Domain()
	e.clusters = clusters
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

// dbSlice returns the flat bytes for `count` records starting at the
// given global record index, zero-padded past the end of the database.
func dbSlice(db *database.DB, startRecord, count int) []byte {
	recordSize := db.RecordSize()
	data := db.Data()
	start := startRecord * recordSize
	want := count * recordSize
	if start >= len(data) {
		return make([]byte, want)
	}
	if start+want <= len(data) {
		return data[start : start+want]
	}
	out := make([]byte, want)
	copy(out, data[start:])
	return out
}

func align8(n int) int { return (n + 7) &^ 7 }

// selectorFlat packs a selector into flat little-endian bytes padded to
// the cluster's full capacity (|DPUs|·B_d bits), so both resident chunks
// and batched pass-slices are simple sub-slices.
func (c *cluster) selectorFlat(words []uint64) []byte {
	flat := make([]byte, len(c.dpuIDs)*c.recordsPerDPU/8)
	for i, w := range words {
		off := i * 8
		flat[off] = byte(w)
		flat[off+1] = byte(w >> 8)
		flat[off+2] = byte(w >> 16)
		flat[off+3] = byte(w >> 24)
		flat[off+4] = byte(w >> 32)
		flat[off+5] = byte(w >> 40)
		flat[off+6] = byte(w >> 48)
		flat[off+7] = byte(w >> 56)
	}
	return flat
}

// runGroup executes the PIM phases of a FUSED group of up to c.maxBatch
// queries on one cluster: scatter every selector (➌), launch ONE dpXOR
// kernel carrying all the group's selector streams (➍), gather the
// per-stream subresults (➎), and XOR-fold them on the host into out (➏),
// one zeroed record per selector. In batched mode (database beyond MRAM
// capacity) the database itself is also streamed through MRAM — once per
// pass for the whole group, which is the fusion's biggest win: the
// queries share each chunk's DMA instead of restaging it per query.
// Returns the group's combined per-phase breakdown.
func (e *Engine) runGroup(c *cluster, sels [][]uint64, out [][]byte) (metrics.Breakdown, error) {
	var bd metrics.Breakdown
	nq := len(sels)
	if nq > c.maxBatch {
		return bd, fmt.Errorf("impir: fused group of %d exceeds cluster batch capacity %d", nq, c.maxBatch)
	}

	c.mu.Lock()
	defer c.mu.Unlock()

	recordSize := e.db.RecordSize()
	flatSels := make([][]byte, nq)
	for q, sel := range sels {
		flatSels[q] = c.selectorFlat(sel)
	}

	selChunks := make([][]byte, len(c.dpuIDs))
	var dbChunks [][]byte
	if !c.resident {
		dbChunks = make([][]byte, len(c.dpuIDs))
	}

	for pass := 0; pass < c.passes; pass++ {
		passBase := pass * c.perPassRecords
		passRecords := c.perPassRecords
		if passBase+passRecords > c.recordsPerDPU {
			// Final pass covers the tail of each DPU's share (both are
			// 64-multiples, so the clamp stays kernel-aligned).
			passRecords = c.recordsPerDPU - passBase
		}
		argBlock := pimkernel.DPXORArgs{
			DBOffset:     0,
			NumRecords:   uint64(passRecords),
			RecordSize:   uint64(recordSize),
			SelOffset:    uint64(c.selOffset),
			OutOffset:    uint64(c.outOffset),
			NumSelectors: uint64(nq),
		}.Marshal()
		args := make([][]byte, len(c.dpuIDs))
		selStride := passRecords / 8
		for i := range c.dpuIDs {
			recStart := i*c.recordsPerDPU + passBase
			selStart := recStart / 8
			args[i] = argBlock
			// The kernel reads stream q at SelOffset + q×(passRecords/8);
			// pack each DPU's B per-pass selector slices back to back so
			// one scatter stages the whole group.
			combined := make([]byte, nq*selStride)
			for q := range flatSels {
				copy(combined[q*selStride:], flatSels[q][selStart:selStart+selStride])
			}
			selChunks[i] = combined
			if !c.resident {
				dbChunks[i] = dbSlice(e.db, recStart, passRecords)
			}
		}

		// Batched mode only: stage this pass's database chunks ONCE for
		// the whole fused group (§3.3's adaptation; in resident mode the
		// DB was preloaded for free).
		if !c.resident {
			start := time.Now()
			cost, err := e.sys.Scatter(c.dpuIDs, 0, dbChunks)
			if err != nil {
				return bd, fmt.Errorf("impir: stage DB pass %d: %w", pass, err)
			}
			bd.AddPhase(metrics.PhaseCopyToPIM, time.Since(start), cost.Modeled)
		}

		// ➌ scatter the group's selector chunks.
		start := time.Now()
		scatterCost, err := e.sys.Scatter(c.dpuIDs, c.selOffset, selChunks)
		if err != nil {
			return bd, fmt.Errorf("impir: scatter: %w", err)
		}
		bd.AddPhase(metrics.PhaseCopyToPIM, time.Since(start), scatterCost.Modeled)

		// ➍ one dpXOR kernel launch carrying all B selector streams.
		start = time.Now()
		launchCost, err := e.sys.Launch(c.dpuIDs, pimkernel.DPXOR{}, args)
		if err != nil {
			return bd, fmt.Errorf("impir: dpXOR launch: %w", err)
		}
		bd.AddPhase(metrics.PhaseDpXOR, time.Since(start), launchCost.Modeled)

		// ➎ gather the per-DPU, per-stream subresults in one transfer.
		start = time.Now()
		subresults, gatherCost, err := e.sys.Gather(c.dpuIDs, c.outOffset, nq*recordSize)
		if err != nil {
			return bd, fmt.Errorf("impir: gather: %w", err)
		}
		bd.AddPhase(metrics.PhaseCopyToHost, time.Since(start), gatherCost.Modeled)

		// ➏ aggregate on the host, per stream.
		start = time.Now()
		for _, sub := range subresults {
			for q := range out {
				if err := xorop.XORBytes(out[q], sub[q*recordSize:(q+1)*recordSize]); err != nil {
					return bd, fmt.Errorf("impir: aggregate: %w", err)
				}
			}
		}
		bd.AddPhase(metrics.PhaseAggregate, time.Since(start),
			e.cfg.Host.XORFoldDuration(nq*len(subresults), recordSize))
	}

	return bd, nil
}

// Close releases the engine. (The simulator has no external resources;
// Close exists for API symmetry with real deployments.)
func (e *Engine) Close() error { return nil }
