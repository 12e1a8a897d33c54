package pim

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// System is the functional, timed tasklet simulator: a simulated PIM
// machine whose DPUs are reachable from the host through explicit,
// rank-parallel memory transfers and SPMD kernel launches. Only tests run
// it — it is the oracle ReplayCost is held to. All methods are safe for concurrent use; concurrent launches
// and transfers are allowed on disjoint DPU sets (this is how the engine
// runs DPU clusters in parallel), and overlapping launches on the same
// DPU are reported as errors.
type System struct {
	cfg  Config
	dpus []*dpu

	// launchSlots bounds how many DPUs execute functionally at once so a
	// 2048-DPU launch does not spawn 32k goroutines.
	launchSlots chan struct{}
}

// NewSystem allocates a simulated machine.
func NewSystem(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &System{
		cfg:         cfg,
		dpus:        make([]*dpu, cfg.NumDPUs()),
		launchSlots: make(chan struct{}, maxParallelDPUs()),
	}
	for i := range s.dpus {
		s.dpus[i] = &dpu{id: i, cfg: &s.cfg}
	}
	return s, nil
}

func maxParallelDPUs() int {
	n := runtime.GOMAXPROCS(0) * 2
	// Keep headroom beyond the core count: a kernel may block in DPU
	// code (e.g. on host-mediated I/O) while another launch waits for
	// slots, and on a 1-CPU machine a 2-slot semaphore would let two
	// blocked DPUs starve every later launch.
	if n < 8 {
		n = 8
	}
	return n
}

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }

// NumDPUs returns the number of DPUs in the system.
func (s *System) NumDPUs() int { return len(s.dpus) }

func (s *System) dpuByID(id int) (*dpu, error) {
	if id < 0 || id >= len(s.dpus) {
		return nil, fmt.Errorf("pim: DPU id %d out of range [0,%d)", id, len(s.dpus))
	}
	return s.dpus[id], nil
}

// Preload copies data into a DPU's MRAM without charging transfer time.
// This models the paper's one-time database preloading (§3.3), which is
// explicitly excluded from query-latency measurements (§5.1).
func (s *System) Preload(dpuID, offset int, data []byte) error {
	d, err := s.dpuByID(dpuID)
	if err != nil {
		return err
	}
	return d.writeMRAM(offset, data)
}

// InspectMRAM reads a DPU's MRAM without charging transfer time; intended
// for tests and debugging, not for the query path.
func (s *System) InspectMRAM(dpuID, offset, size int) ([]byte, error) {
	d, err := s.dpuByID(dpuID)
	if err != nil {
		return nil, err
	}
	out := make([]byte, size)
	if err := d.readMRAM(offset, out); err != nil {
		return nil, err
	}
	return out, nil
}

// Scatter copies chunks[i] into MRAM[offset:] of dpuIDs[i]. Transfers to
// distinct ranks proceed in parallel; the modeled duration is the slowest
// rank's serialised volume plus the fixed transfer latency.
func (s *System) Scatter(dpuIDs []int, offset int, chunks [][]byte) (Cost, error) {
	if len(dpuIDs) != len(chunks) {
		return Cost{}, fmt.Errorf("pim: scatter: %d DPUs but %d chunks", len(dpuIDs), len(chunks))
	}
	rankBytes := make(map[int]int64)
	var total int64
	for i, id := range dpuIDs {
		d, err := s.dpuByID(id)
		if err != nil {
			return Cost{}, err
		}
		if err := d.writeMRAM(offset, chunks[i]); err != nil {
			return Cost{}, fmt.Errorf("pim: scatter to DPU %d: %w", id, err)
		}
		rankBytes[d.rank()] += int64(len(chunks[i]))
		total += int64(len(chunks[i]))
	}
	return s.transferCost(rankBytes, total, s.cfg.HostToDPUBandwidthPerRank), nil
}

// Broadcast copies the same buffer into every listed DPU's MRAM.
func (s *System) Broadcast(dpuIDs []int, offset int, data []byte) (Cost, error) {
	chunks := make([][]byte, len(dpuIDs))
	for i := range chunks {
		chunks[i] = data
	}
	return s.Scatter(dpuIDs, offset, chunks)
}

// Gather reads size bytes from MRAM[offset:] of every listed DPU,
// returning one buffer per DPU, with rank-parallel timing like Scatter.
func (s *System) Gather(dpuIDs []int, offset, size int) ([][]byte, Cost, error) {
	out := make([][]byte, len(dpuIDs))
	rankBytes := make(map[int]int64)
	var total int64
	for i, id := range dpuIDs {
		d, err := s.dpuByID(id)
		if err != nil {
			return nil, Cost{}, err
		}
		buf := make([]byte, size)
		if err := d.readMRAM(offset, buf); err != nil {
			return nil, Cost{}, fmt.Errorf("pim: gather from DPU %d: %w", id, err)
		}
		out[i] = buf
		rankBytes[d.rank()] += int64(size)
		total += int64(size)
	}
	return out, s.transferCost(rankBytes, total, s.cfg.DPUToHostBandwidthPerRank), nil
}

func (s *System) transferCost(rankBytes map[int]int64, total int64, perRankBW float64) Cost {
	var worst float64
	for _, b := range rankBytes {
		if t := float64(b) / perRankBW; t > worst {
			worst = t
		}
	}
	return Cost{
		Modeled: time.Duration(worst*float64(time.Second)) + s.cfg.TransferLatency,
		Bytes:   total,
	}
}

// Launch runs the kernel on every listed DPU with TaskletsPerDPU tasklets
// each. args[i] is DPU i's argument block (args may be nil for no
// arguments). The call blocks until all DPUs finish — matching UPMEM's
// synchronous dpu_launch — and returns the modeled duration: the slowest
// DPU's compute+DMA time plus the fixed launch overhead.
//
// Launching a DPU that is already executing is an error: real hardware
// serialises launches per DPU, and an overlap here means the caller's
// scheduler double-booked a cluster.
func (s *System) Launch(dpuIDs []int, kern Kernel, args [][]byte) (Cost, error) {
	if len(dpuIDs) == 0 {
		return Cost{}, errors.New("pim: launch with no DPUs")
	}
	if args != nil && len(args) != len(dpuIDs) {
		return Cost{}, fmt.Errorf("pim: launch: %d DPUs but %d arg blocks", len(dpuIDs), len(args))
	}

	// Mark all DPUs busy up front so overlapping launches fail loudly.
	acquired := make([]*dpu, 0, len(dpuIDs))
	for _, id := range dpuIDs {
		d, err := s.dpuByID(id)
		if err != nil {
			s.releaseAll(acquired)
			return Cost{}, err
		}
		d.mu.Lock()
		if d.busy {
			d.mu.Unlock()
			s.releaseAll(acquired)
			return Cost{}, fmt.Errorf("pim: DPU %d is already executing a kernel", id)
		}
		d.busy = true
		d.mu.Unlock()
		acquired = append(acquired, d)
	}
	defer s.releaseAll(acquired)

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		worst    time.Duration
		dmaTotal int64
	)
	for i, d := range acquired {
		var arg []byte
		if args != nil {
			arg = args[i]
		}
		wg.Add(1)
		s.launchSlots <- struct{}{}
		go func(d *dpu, arg []byte) {
			defer wg.Done()
			defer func() { <-s.launchSlots }()
			dur, dmaBytes, err := s.runDPU(d, kern, arg)
			mu.Lock()
			defer mu.Unlock()
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("pim: kernel %q on DPU %d: %w", kern.Name(), d.id, err)
			}
			if dur > worst {
				worst = dur
			}
			dmaTotal += dmaBytes
		}(d, arg)
	}
	wg.Wait()
	if firstErr != nil {
		return Cost{}, firstErr
	}
	return Cost{Modeled: worst + s.cfg.LaunchOverhead, Bytes: dmaTotal}, nil
}

func (s *System) releaseAll(dpus []*dpu) {
	for _, d := range dpus {
		d.mu.Lock()
		d.busy = false
		d.mu.Unlock()
	}
}

// runDPU executes one DPU's tasklets and returns the modeled duration of
// this DPU's part of the launch.
func (s *System) runDPU(d *dpu, kern Kernel, arg []byte) (time.Duration, int64, error) {
	t := s.cfg.TaskletsPerDPU
	state := &launchState{
		dpu:     d,
		args:    arg,
		wram:    &wram{capacity: s.cfg.WRAMPerDPU},
		barrier: newBarrier(t),
	}

	var wg sync.WaitGroup
	errs := make([]error, t)
	for id := 0; id < t; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			ctx := &TaskletCtx{state: state, id: id}
			if err := kern.Run(ctx); err != nil {
				errs[id] = err
				state.barrier.breakBarrier()
			}
		}(id)
	}
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			return 0, 0, err
		}
	}

	return s.cfg.dpuDuration(state.instrCycles, state.dmaBytes), state.dmaBytes, nil
}
