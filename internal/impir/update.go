package impir

import (
	"errors"
	"fmt"

	"github.com/impir/impir/internal/pim"
)

// UpdateRecords applies a bulk database update during an idle window, as
// §3.3 describes for frequently updated databases: the host rewrites the
// affected records between query batches. The engine's host copy, which
// passes scan, takes the update; the returned cost models the CPU→DPU
// transfer of the dirty records into every resident cluster's MRAM
// replica (streaming clusters restage from the host copy on every pass).
// Amortised over the window it does not sit on any query's critical path.
//
// UpdateRecords must not run concurrently with a Pass — the
// DPUs process queries against a stable database version, exactly the
// discipline the paper prescribes. Callers above the engine get this
// for free: the request scheduler (internal/scheduler) quiesces
// in-flight query passes around every update.
func (e *Engine) UpdateRecords(updates map[uint64][]byte) (pim.Cost, error) {
	if e.db == nil {
		return pim.Cost{}, errors.New("impir: no database loaded")
	}
	// ApplyUpdates validates every entry before it rewrites any.
	if err := e.db.ApplyUpdates(updates); err != nil {
		return pim.Cost{}, fmt.Errorf("impir: %w", err)
	}
	ranksTouched := make(map[int]struct{})
	var totalBytes int64
	for idx := range updates {
		for _, c := range e.clusters {
			// Safe narrowing: validated above against the int record count.
			slot := int(idx) / c.RecordsPerDPU
			if !c.Resident() || slot >= c.DPUs {
				// Streaming, or beyond the populated chunks (zero padding).
				continue
			}
			ranksTouched[(c.FirstDPU+slot)/e.cfg.PIM.DPUsPerRank] = struct{}{}
			totalBytes += int64(c.RecordSize)
		}
	}
	return pim.Cost{
		Modeled: e.cfg.PIM.HostToDPUDuration(totalBytes, len(ranksTouched)),
		Bytes:   totalBytes,
	}, nil
}

// ApplyUpdates is UpdateRecords without the cost report — the uniform
// update entry point shared by every engine. The same concurrency
// discipline applies.
func (e *Engine) ApplyUpdates(updates map[uint64][]byte) error {
	_, err := e.UpdateRecords(updates)
	return err
}
