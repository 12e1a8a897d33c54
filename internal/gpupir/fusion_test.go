package gpupir

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"github.com/impir/impir/internal/bitvec"
	"github.com/impir/impir/internal/dpf"
	"github.com/impir/impir/internal/xorop"
)

// TestQueryBatchFusedMatchesUnfused: a fused grid scan of width B must
// be byte-equal with B width-1 passes (one serial upload + scan each),
// for DPF keys and for raw selector shares, across batch widths.
func TestQueryBatchFusedMatchesUnfused(t *testing.T) {
	const numRecords = 2048
	eng, db := newLoaded(t, numRecords, Config{})

	rng := rand.New(rand.NewSource(2027))
	for _, b := range []int{1, 2, 8, 32} {
		keys := make([]*dpf.Key, b)
		shares := make([]*bitvec.Vector, b)
		for q := 0; q < b; q++ {
			keys[q], _ = genPair(t, db.Domain(), uint64(rng.Intn(numRecords)))
			shares[q] = bitvec.New(numRecords)
			for i := 0; i < numRecords; i++ {
				if rng.Intn(2) == 1 {
					shares[q].Set(i)
				}
			}
		}

		kf, statsK, err := eng.Pass(dpf.Batch{Keys: keys})
		if err != nil {
			t.Fatalf("B=%d: fused key pass: %v", b, err)
		}
		sf, statsS, err := eng.Pass(dpf.Batch{Shares: shares})
		if err != nil {
			t.Fatalf("B=%d: fused share pass: %v", b, err)
		}
		for q := 0; q < b; q++ {
			ks, soloK, err := eng.Pass(dpf.Batch{Keys: keys[q : q+1]})
			if err != nil {
				t.Fatalf("B=%d key %d: unfused pass: %v", b, q, err)
			}
			ss, soloS, err := eng.Pass(dpf.Batch{Shares: shares[q : q+1]})
			if err != nil {
				t.Fatalf("B=%d share %d: unfused pass: %v", b, q, err)
			}
			if !bytes.Equal(kf[q], ks[0]) {
				t.Fatalf("B=%d key %d: fused %x != unfused %x", b, q, kf[q][:8], ks[0][:8])
			}
			if !bytes.Equal(sf[q], ss[0]) {
				t.Fatalf("B=%d share %d: fused %x != unfused %x", b, q, sf[q][:8], ss[0][:8])
			}
			if soloK.Fused || soloS.Fused {
				t.Errorf("B=%d query %d: width-1 pass reported Fused", b, q)
			}
		}
		// A batch of one takes the single-query path.
		if statsK.Fused != (b > 1) || statsS.Fused != (b > 1) {
			t.Errorf("B=%d: pass reported Fused=%v (keys), %v (shares)", b, statsK.Fused, statsS.Fused)
		}
	}
}

// TestPassMatchesGridScan: the host scan Pass answers with must be
// byte-equal with the thread-block grid the model describes, for grids
// that split the selector words evenly, raggedly, or not at all.
func TestPassMatchesGridScan(t *testing.T) {
	const numRecords = 3000
	rng := rand.New(rand.NewSource(7))
	eng, _ := newLoaded(t, numRecords, Config{})
	db := eng.Database()
	for _, blocks := range []int{1, 5, 47, 128} {
		for _, b := range []int{1, 3, 9} {
			shares := make([]*bitvec.Vector, b)
			sels := make([][]uint64, b)
			for q := range shares {
				shares[q] = bitvec.New(db.NumRecords())
				for i := 0; i < db.NumRecords(); i++ {
					shares[q].SetTo(i, rng.Intn(2) == 1)
				}
				sels[q] = shares[q].Words()
			}
			got, _, err := eng.Pass(dpf.Batch{Shares: shares})
			if err != nil {
				t.Fatal(err)
			}
			want, err := eng.gridScan(sels, blocks)
			if err != nil {
				t.Fatal(err)
			}
			for q := range want {
				if !bytes.Equal(got[q], want[q]) {
					t.Fatalf("%d blocks, B=%d, selector %d: pass %x != grid %x", blocks, b, q, got[q][:8], want[q][:8])
				}
			}
		}
	}
}

// gridScan is the functional CUDA-style grid dpXOR the model describes,
// kept as the oracle for Pass's host scan: each thread block streams its
// contiguous DB slice once and accumulates every selector's partial from
// it, then a second kernel folds the per-block partials into the B
// subresults. A lone selector is the classic per-query grid scan. The
// grid has min(blocks, groups) blocks of 64-record selector-word groups.
func (e *Engine) gridScan(sels [][]uint64, blocks int) ([][]byte, error) {
	recordSize := e.db.RecordSize()
	nq := len(sels)
	results := xorop.NewAccumulators(nq, recordSize)
	partials := xorop.NewAccumulators(nq, recordSize)
	numRecords := e.db.NumRecords()
	groups := max(numRecords/64, 1) // 64-record selector words
	blocks = min(blocks, groups)
	groupsPerBlock := (groups + blocks - 1) / blocks
	data := e.db.Data()
	blockSels := make([][]uint64, nq)
	for lo := 0; lo < groups; lo += groupsPerBlock {
		hi := min(lo+groupsPerBlock, groups)
		loRec, hiRec := lo*64, min(hi*64, numRecords)
		for _, p := range partials {
			clear(p)
		}
		for q := range sels {
			blockSels[q] = sels[q][lo:hi]
		}
		// One serial pass per block — the block IS the parallel grain, so
		// the kernel below runs with a single worker.
		if err := xorop.AccumulateBatchWorkers(partials, data[loRec*recordSize:hiRec*recordSize],
			recordSize, blockSels, 1); err != nil {
			return nil, fmt.Errorf("gpupir: block at group %d: %w", lo, err)
		}
		for q := range results {
			if err := xorop.XORBytes(results[q], partials[q]); err != nil {
				return nil, err
			}
		}
	}
	return results, nil
}
