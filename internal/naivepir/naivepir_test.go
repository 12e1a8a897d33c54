package naivepir

import (
	"bytes"
	"testing"
	"testing/quick"

	"github.com/impir/impir/internal/bitvec"
	"github.com/impir/impir/internal/database"
	"github.com/impir/impir/internal/dpf"
)

func retrieve(t *testing.T, db *database.DB, index uint64, servers int) []byte {
	t.Helper()
	q, err := Gen(nil, db.NumRecords(), index, servers)
	if err != nil {
		t.Fatalf("Gen: %v", err)
	}
	subs := make([][]byte, servers)
	for s := 0; s < servers; s++ {
		subs[s], err = Answer(db, q.Shares[s])
		if err != nil {
			t.Fatalf("Answer(server %d): %v", s, err)
		}
	}
	rec, err := Reconstruct(subs)
	if err != nil {
		t.Fatalf("Reconstruct: %v", err)
	}
	return rec
}

func TestFigure2WorkedExample(t *testing.T) {
	// The paper's running example: D = [00, 10, 01, 11] (2-bit records),
	// retrieving D[1] = 10 with two servers.
	db, err := database.New(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range [][]byte{{0b00}, {0b10}, {0b01}, {0b11}} {
		if err := db.SetRecord(i, rec); err != nil {
			t.Fatal(err)
		}
	}
	got := retrieve(t, db, 1, 2)
	if got[0] != 0b10 {
		t.Fatalf("D[1] = %02b, want 10", got[0])
	}
}

func TestEndToEndAcrossServerCounts(t *testing.T) {
	db, err := database.GenerateHashDB(300, 6) // deliberately not a power of two
	if err != nil {
		t.Fatal(err)
	}
	for _, servers := range []int{2, 3, 5} {
		for _, idx := range []uint64{0, 137, 299} {
			got := retrieve(t, db, idx, servers)
			if !bytes.Equal(got, db.Record(int(idx))) {
				t.Fatalf("servers=%d index=%d: wrong record", servers, idx)
			}
		}
	}
}

func TestSharesXorToOneHot(t *testing.T) {
	const n = 500
	q, err := Gen(nil, n, 42, 3)
	if err != nil {
		t.Fatal(err)
	}
	combined := bitvec.New(n)
	for _, s := range q.Shares {
		combined.Xor(s)
	}
	if combined.OnesCount() != 1 || !combined.Bit(42) {
		t.Fatalf("shares XOR to weight %d, want one-hot at 42", combined.OnesCount())
	}
}

func TestIndividualShareLooksRandom(t *testing.T) {
	const n = 4096
	q, err := Gen(nil, n, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	for s, share := range q.Shares {
		ones := share.OnesCount()
		if ones < n/4 || ones > 3*n/4 {
			t.Fatalf("share %d weight %d/%d — not pseudorandom", s, ones, n)
		}
	}
}

func TestWireBits(t *testing.T) {
	q, err := Gen(nil, 1000, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if q.WireBits() != 1000 {
		t.Fatalf("WireBits = %d, want 1000 (O(N) communication)", q.WireBits())
	}
	if (&Query{}).WireBits() != 0 {
		t.Fatal("empty query has nonzero wire size")
	}
}

// TestAgreesWithDPF: the naive scheme and the DPF scheme must retrieve
// identical records — each serves as the other's oracle.
func TestAgreesWithDPF(t *testing.T) {
	db, err := database.GenerateHashDB(512, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range []uint64{3, 256, 511} {
		naive := retrieve(t, db, idx, 2)

		k0, k1, err := dpf.Gen(dpf.Params{Domain: db.Domain()}, idx, nil)
		if err != nil {
			t.Fatal(err)
		}
		v0, err := k0.EvalFull(dpf.FullEvalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		v1, err := k1.EvalFull(dpf.FullEvalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		r0, err := Answer(db, v0)
		if err != nil {
			t.Fatal(err)
		}
		r1, err := Answer(db, v1)
		if err != nil {
			t.Fatal(err)
		}
		viaDPF, err := Reconstruct([][]byte{r0, r1})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(naive, viaDPF) {
			t.Fatalf("index %d: naive and DPF retrievals differ", idx)
		}
	}
}

func TestValidation(t *testing.T) {
	if _, err := Gen(nil, 100, 0, 1); err == nil {
		t.Error("Gen accepted single server")
	}
	if _, err := Gen(nil, 0, 0, 2); err == nil {
		t.Error("Gen accepted empty database")
	}
	if _, err := Gen(nil, 100, 100, 2); err == nil {
		t.Error("Gen accepted out-of-range index")
	}
	db, _ := database.GenerateHashDB(64, 1)
	if _, err := Answer(nil, bitvec.New(64)); err == nil {
		t.Error("Answer accepted nil database")
	}
	if _, err := Answer(db, nil); err == nil {
		t.Error("Answer accepted nil share")
	}
	if _, err := Answer(db, bitvec.New(32)); err == nil {
		t.Error("Answer accepted mis-sized share")
	}
	if _, err := Reconstruct([][]byte{{1}}); err == nil {
		t.Error("Reconstruct accepted one subresult")
	}
	if _, err := Reconstruct([][]byte{{1}, {1, 2}}); err == nil {
		t.Error("Reconstruct accepted ragged subresults")
	}
}

// Property: retrieval is correct for random index and server count.
func TestQuickRetrieval(t *testing.T) {
	db, err := database.GenerateHashDB(256, 4)
	if err != nil {
		t.Fatal(err)
	}
	f := func(idxRaw uint16, nRaw uint8) bool {
		idx := uint64(idxRaw) % 256
		servers := int(nRaw)%3 + 2
		q, err := Gen(nil, 256, idx, servers)
		if err != nil {
			return false
		}
		subs := make([][]byte, servers)
		for s := range subs {
			subs[s], err = Answer(db, q.Shares[s])
			if err != nil {
				return false
			}
		}
		rec, err := Reconstruct(subs)
		if err != nil {
			return false
		}
		return bytes.Equal(rec, db.Record(int(idx)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
