package impir

import (
	"errors"
	"fmt"
	"slices"

	"github.com/impir/impir/internal/pim"
)

// UpdateRecords applies a bulk database update during an idle window, as
// §3.3 describes for frequently updated databases: the host rewrites the
// affected records in every cluster's MRAM replica (and in the engine's
// host-side copy) between query batches. The returned cost models the
// CPU→DPU transfer of the dirty records; amortised over the window it
// does not sit on any query's critical path.
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
	// Validate everything before mutating anything, so a bad entry can
	// not leave replicas diverged.
	if err := e.db.ApplyUpdates(updates); err != nil {
		return pim.Cost{}, fmt.Errorf("impir: %w", err)
	}
	recordSize := e.db.RecordSize()
	indices := make([]uint64, 0, len(updates))
	for idx := range updates {
		indices = append(indices, idx)
	}
	slices.Sort(indices)

	ranksTouched := make(map[int]struct{})
	var totalBytes int64
	for _, uidx := range indices {
		rec := updates[uidx]
		// Safe narrowing: validated above against the int record count.
		idx := int(uidx)
		for _, c := range e.clusters {
			if !c.resident {
				// Batched clusters restage the database from the host
				// copy on every query; only that copy needs the update.
				continue
			}
			dpuSlot := idx / c.recordsPerDPU
			if dpuSlot >= len(c.dpuIDs) {
				// Beyond the replica's populated chunks (zero padding).
				continue
			}
			dpuID := c.dpuIDs[dpuSlot]
			offset := (idx % c.recordsPerDPU) * recordSize
			if err := e.sys.Preload(dpuID, offset, rec); err != nil {
				return pim.Cost{}, fmt.Errorf("impir: update record %d on DPU %d: %w", idx, dpuID, err)
			}
			ranksTouched[dpuID/e.cfg.PIM.DPUsPerRank] = struct{}{}
			totalBytes += int64(recordSize)
		}
	}

	cost := pim.Cost{
		Modeled: e.cfg.PIM.HostToDPUDuration(totalBytes, len(ranksTouched)),
		Bytes:   totalBytes,
	}
	return cost, nil
}

// ApplyUpdates is UpdateRecords without the cost report — the uniform
// update entry point shared by every engine. The same concurrency
// discipline applies.
func (e *Engine) ApplyUpdates(updates map[uint64][]byte) error {
	_, err := e.UpdateRecords(updates)
	return err
}
