package cpupir

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/impir/impir/internal/bitvec"
	"github.com/impir/impir/internal/dpf"
)

// TestQueryBatchFusedMatchesUnfused: a fused pass of width B must be
// byte-equal with B width-1 passes (one single-query scan each), for DPF
// keys and for raw selector shares, across batch widths.
func TestQueryBatchFusedMatchesUnfused(t *testing.T) {
	const numRecords = 2048
	eng, db := newLoaded(t, numRecords)

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
		// A batch of one takes the single-query scan.
		if statsK.Fused != (b > 1) || statsS.Fused != (b > 1) {
			t.Errorf("B=%d: pass reported Fused=%v (keys), %v (shares)", b, statsK.Fused, statsS.Fused)
		}
	}
}
