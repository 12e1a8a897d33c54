package bench

import (
	"bytes"
	"fmt"
	"time"

	"github.com/impir/impir/internal/cpupir"
	"github.com/impir/impir/internal/database"
	"github.com/impir/impir/internal/dpf"
	"github.com/impir/impir/internal/gpupir"
	"github.com/impir/impir/internal/hostmodel"
	"github.com/impir/impir/internal/impir"
	"github.com/impir/impir/internal/metrics"
	"github.com/impir/impir/internal/pim"
)

// verifyEngine is the minimal engine surface the functional checks need.
type verifyEngine interface {
	Name() string
	LoadDatabase(*database.DB) error
	Pass(dpf.Batch) ([][]byte, metrics.BatchStats, error)
}

// answer runs one key through e as a width-1 pass.
func answer(e verifyEngine, key *dpf.Key) ([]byte, error) {
	results, _, err := e.Pass(dpf.Batch{Keys: []*dpf.Key{key}})
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// retrieve runs the two-server protocol: each replica answers its key,
// and the XOR of the two subresults is the record.
func retrieve(e0, e1 verifyEngine, k0, k1 *dpf.Key) ([]byte, error) {
	r0, err := answer(e0, k0)
	if err != nil {
		return nil, err
	}
	r1, err := answer(e1, k1)
	if err != nil {
		return nil, err
	}
	for i := range r0 {
		r0[i] ^= r1[i]
	}
	return r0, nil
}

// verifyFunctional executes the full protocol on a scaled database with
// all three engines and cross-checks: (a) two-server reconstruction
// returns the right record, (b) all engines produce byte-identical
// subresults for the same key. It returns a summary of measured wall
// times, proving the models in this package sit on a real implementation.
func verifyFunctional(numRecords int) (string, error) {
	db, err := database.GenerateHashDB(numRecords, 2025)
	if err != nil {
		return "", err
	}

	pimCfg := impir.DefaultConfig()
	pimCfg.PIM = pim.DefaultConfig()
	pimCfg.PIM.Ranks = 2
	pimCfg.PIM.DPUsPerRank = 8
	pimCfg.PIM.TaskletsPerDPU = 8
	pimCfg.DPUs = 16
	pimCfg.EvalWorkers = 2
	pimCfg.Host = hostmodel.PIMHost()
	pimEng, err := impir.New(pimCfg)
	if err != nil {
		return "", err
	}
	cpuEng, err := cpupir.New(cpupir.Config{Threads: 2})
	if err != nil {
		return "", err
	}
	gpuEng, err := gpupir.New(gpupir.Config{})
	if err != nil {
		return "", err
	}

	engines := []verifyEngine{pimEng, cpuEng, gpuEng}
	for _, e := range engines {
		if err := e.LoadDatabase(db); err != nil {
			return "", fmt.Errorf("%s: load: %w", e.Name(), err)
		}
	}

	idx := uint64(numRecords / 3)
	domain := db.PadToPowerOfTwo().Domain()
	k0, k1, err := dpf.Gen(dpf.Params{Domain: domain}, idx, nil)
	if err != nil {
		return "", err
	}

	// (b) cross-engine agreement on the same key.
	var subresults [][]byte
	var walls []time.Duration
	for _, e := range engines {
		start := time.Now()
		r, err := answer(e, k0)
		if err != nil {
			return "", fmt.Errorf("%s: query: %w", e.Name(), err)
		}
		walls = append(walls, time.Since(start))
		subresults = append(subresults, r)
	}
	for i := 1; i < len(subresults); i++ {
		if !bytes.Equal(subresults[0], subresults[i]) {
			return "", fmt.Errorf("engines %s and %s disagree on subresult",
				engines[0].Name(), engines[i].Name())
		}
	}

	// (a) two-server reconstruction through the PIM engine.
	rec, err := retrieve(pimEng, pimEng, k0, k1)
	if err != nil {
		return "", err
	}
	if !bytes.Equal(rec, db.Record(int(idx))) {
		return "", fmt.Errorf("two-server reconstruction failed at index %d", idx)
	}

	return fmt.Sprintf("N=%d records: engines agree bit-exactly; reconstruction correct; "+
		"local wall per query: pim-sim %v, cpu %v, gpu-sim %v",
		numRecords, walls[0].Round(time.Microsecond), walls[1].Round(time.Microsecond),
		walls[2].Round(time.Microsecond)), nil
}
