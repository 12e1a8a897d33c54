package pim

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/impir/impir/internal/xorop"
)

// Selector patterns FuzzReplayCost draws from.
const (
	selDense    = iota // uniform random words
	selZeroRuns        // half the 64-record groups select nothing
	selZeroSubs        // random runs of bits cleared, emptying DMA sub-chunks
	selSparse          // about one bit per group
	selPatterns
)

// fuzzSelectors returns nq selectors of `words` words in the given pattern.
func fuzzSelectors(rng *rand.Rand, nq, words, pattern int) [][]uint64 {
	sels := make([][]uint64, nq)
	for q := range sels {
		sels[q] = make([]uint64, words)
		for w := range sels[q] {
			x := rng.Uint64()
			switch pattern {
			case selZeroRuns:
				// Zero for every stream at once, so the whole group's union
				// is empty and its record DMA is skipped.
				if w%2 == 0 {
					x = 0
				}
			case selZeroSubs:
				lo := uint(w*13) % 64
				x &^= (^uint64(0) >> (lo % 48)) << lo
			case selSparse:
				x = 1 << uint(rng.Intn(64))
				if rng.Intn(4) == 0 {
					x = 0
				}
			}
			sels[q][w] = x
		}
	}
	return sels
}

// FuzzReplayCost is the differential test of the cost replay against the
// tasklet simulator: on random geometries — record sizes 8…2048, widths
// up to MaxFusedSelectors, 1…16 tasklets, a cluster of 1, 2 or 4 whose
// DPUs may straddle ranks, resident or streaming, selectors dense or with
// whole groups and DMA sub-chunks left unselected — the simulator's
// answers must equal xorop's, and ReplayCost must equal what the
// simulator charged, per pass and per phase.
func FuzzReplayCost(f *testing.F) {
	// Seeds: the batch_pim shape, 2 KiB and 8 B records, streaming, each
	// zero-union pattern, and (seeds 27 and 58) clusters whose DPUs
	// straddle ranks unevenly.
	f.Add(int64(1), uint16(31), uint8(7), uint8(15), uint8(0), false, uint8(selDense))
	f.Add(int64(2), uint16(255), uint8(0), uint8(3), uint8(1), true, uint8(selZeroRuns))
	f.Add(int64(3), uint16(0), uint8(40), uint8(0), uint8(2), true, uint8(selZeroSubs))
	f.Add(int64(4), uint16(63), uint8(3), uint8(10), uint8(2), false, uint8(selZeroSubs))
	f.Add(int64(5), uint16(127), uint8(2), uint8(5), uint8(1), true, uint8(selSparse))
	f.Add(int64(6), uint16(3), uint8(9), uint8(1), uint8(0), true, uint8(selZeroRuns))
	f.Add(int64(27), uint16(15), uint8(4), uint8(7), uint8(1), false, uint8(selDense))
	f.Add(int64(58), uint16(7), uint8(1), uint8(2), uint8(2), true, uint8(selZeroSubs))
	f.Fuzz(func(t *testing.T, seed int64, sizeRaw uint16, widthRaw, taskletsRaw, clustersRaw uint8, streaming bool, patternRaw uint8) {
		rng := rand.New(rand.NewSource(seed))
		recordSize := 8 * (int(sizeRaw)%256 + 1)
		clusters := []int{1, 2, 4}[int(clustersRaw)%3]
		dpusPerCluster := 1 + rng.Intn(4)

		cfg := DefaultConfig()
		cfg.TaskletsPerDPU = int(taskletsRaw)%16 + 1
		cfg.DPUsPerRank = 1 + rng.Intn(4)
		cfg.Ranks = (clusters*dpusPerCluster + cfg.DPUsPerRank - 1) / cfg.DPUsPerRank
		nq := int(widthRaw)%MaxFusedSelectors(cfg, recordSize) + 1

		g := Geometry{
			FirstDPU:      rng.Intn(clusters) * dpusPerCluster,
			DPUs:          dpusPerCluster,
			RecordSize:    recordSize,
			RecordsPerDPU: 64 * (1 + rng.Intn(4)),
		}
		g.PassRecords = g.RecordsPerDPU
		if streaming && g.RecordsPerDPU > 64 {
			g.PassRecords = 64 * (1 + rng.Intn(g.RecordsPerDPU/64-1))
		}
		// The selectors may end before the cluster's capacity, as an
		// engine's padded domain does; the database ends with them.
		words := 1 + rng.Intn(g.DPUs*g.RecordsPerDPU/64)
		db := make([]byte, words*64*recordSize)
		rng.Read(db)
		sels := fuzzSelectors(rng, nq, words, int(patternRaw)%selPatterns)

		answers, want, err := simulate(cfg, g, db, sels)
		if err != nil {
			t.Fatalf("%+v B=%d: simulator: %v", g, nq, err)
		}
		for q, sel := range sels {
			acc := make([]byte, recordSize)
			if err := xorop.Accumulate(acc, db, recordSize, sel); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(answers[q], acc) {
				t.Fatalf("%+v B=%d stream %d: simulator %x != xorop %x", g, nq, q, answers[q][:8], acc[:8])
			}
		}
		got, err := ReplayCost(cfg, g, sels)
		if err != nil {
			t.Fatalf("%+v B=%d: replay: %v", g, nq, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%+v B=%d: replay has %d passes, simulator %d", g, nq, len(got), len(want))
		}
		for p := range want {
			if got[p] != want[p] {
				t.Fatalf("%+v B=%d T=%d ranks of %d, pass %d:\nreplay    %+v\nsimulator %+v",
					g, nq, cfg.TaskletsPerDPU, cfg.DPUsPerRank, p, got[p], want[p])
			}
		}
	})
}

func TestReplayCostValidation(t *testing.T) {
	cfg := DefaultConfig()
	good := Geometry{DPUs: 2, RecordSize: 32, RecordsPerDPU: 128, PassRecords: 64}
	sel := [][]uint64{{1, 2, 3, 4}}
	if _, err := ReplayCost(cfg, good, sel); err != nil {
		t.Fatalf("valid geometry rejected: %v", err)
	}
	for name, g := range map[string]Geometry{
		"odd record size":     {DPUs: 2, RecordSize: 12, RecordsPerDPU: 128, PassRecords: 64},
		"ragged pass":         {DPUs: 2, RecordSize: 32, RecordsPerDPU: 128, PassRecords: 100},
		"pass beyond chunk":   {DPUs: 2, RecordSize: 32, RecordsPerDPU: 128, PassRecords: 192},
		"DPUs beyond system":  {FirstDPU: cfg.NumDPUs() - 1, DPUs: 2, RecordSize: 32, RecordsPerDPU: 128, PassRecords: 64},
		"oversized record":    {DPUs: 2, RecordSize: 4096, RecordsPerDPU: 128, PassRecords: 64},
		"no DPUs":             {RecordSize: 32, RecordsPerDPU: 128, PassRecords: 64},
		"zero records a pass": {DPUs: 2, RecordSize: 32, RecordsPerDPU: 128},
	} {
		if _, err := ReplayCost(cfg, g, sel); err == nil {
			t.Errorf("%s: accepted %+v", name, g)
		}
	}
	if _, err := ReplayCost(cfg, good, nil); err == nil {
		t.Error("empty group accepted")
	}
	if _, err := ReplayCost(cfg, good, make([][]uint64, MaxSelectorsPerLaunch+1)); err == nil {
		t.Error("group beyond the per-launch limit accepted")
	}
}
