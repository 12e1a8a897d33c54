package cpupir

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/impir/impir/internal/bitvec"
	"github.com/impir/impir/internal/dpf"
)

// TestQueryBatchFusedMatchesUnfused: the fused one-pass batch scan must
// be byte-equal with a DisableBatchFusion twin (one scan per query), for
// DPF keys and for raw selector shares, across batch widths.
func TestQueryBatchFusedMatchesUnfused(t *testing.T) {
	const numRecords = 2048
	fused, db := newLoaded(t, numRecords)
	solo, err := New(Config{Threads: 4, DisableBatchFusion: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := solo.LoadDatabase(db.Clone()); err != nil {
		t.Fatal(err)
	}

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

		kf, statsF, err := fused.QueryBatch(keys)
		if err != nil {
			t.Fatalf("B=%d: fused QueryBatch: %v", b, err)
		}
		ks, statsS, err := solo.QueryBatch(keys)
		if err != nil {
			t.Fatalf("B=%d: unfused QueryBatch: %v", b, err)
		}
		sf, _, err := fused.QueryShareBatch(shares)
		if err != nil {
			t.Fatalf("B=%d: fused QueryShareBatch: %v", b, err)
		}
		ss, _, err := solo.QueryShareBatch(shares)
		if err != nil {
			t.Fatalf("B=%d: unfused QueryShareBatch: %v", b, err)
		}
		for q := 0; q < b; q++ {
			if !bytes.Equal(kf[q], ks[q]) {
				t.Fatalf("B=%d key %d: fused %x != unfused %x", b, q, kf[q][:8], ks[q][:8])
			}
			if !bytes.Equal(sf[q], ss[q]) {
				t.Fatalf("B=%d share %d: fused %x != unfused %x", b, q, sf[q][:8], ss[q][:8])
			}
		}
		// A batch of one takes the per-query path on both engines.
		if statsF.Fused != (b > 1) {
			t.Errorf("B=%d: fused engine reported Fused=%v", b, statsF.Fused)
		}
		if statsS.Fused {
			t.Errorf("B=%d: fusion-disabled engine reported Fused", b)
		}
	}
}
