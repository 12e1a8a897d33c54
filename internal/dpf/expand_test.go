package dpf

import (
	"testing"

	"github.com/impir/impir/internal/bitvec"
)

// TestExpand: for every width, worker count and record count of a
// domain-10 database, the front end returns exactly each key's
// evaluation over the records, zero beyond them, in order, and passes
// shares through untouched, tail bits included.
func TestExpand(t *testing.T) {
	const domain = 10
	keys := make([]*Key, 5)
	for i := range keys {
		keys[i], _ = mustGen(t, Params{Domain: domain}, uint64(i*200))
	}
	for _, records := range []int{1 << domain, 700, 513} {
		for _, b := range []int{1, len(keys)} {
			for _, workers := range []int{0, 1, 3, 8} {
				sels, err := Batch{Keys: keys[:b]}.Expand(records, workers, StrategyMemoryBounded)
				if err != nil {
					t.Fatal(err)
				}
				for i, k := range keys[:b] {
					want := referenceFull(t, k)
					got := bitvec.New(1 << domain)
					copy(got.Words(), sels[i])
					if x := firstPrefixMismatch(got, want, records); x >= 0 || len(sels[i]) != len(got.Words()) {
						t.Fatalf("%d records B=%d workers=%d key %d: selector bit %d differs from pointwise Eval",
							records, b, workers, i, x)
					}
				}
			}
		}
	}

	share := bitvec.New(1 << domain)
	share.Set(7)
	share.Set(1000) // beyond the 700 records: the scan ignores it
	sels, err := Batch{Shares: []*bitvec.Vector{share}}.Expand(700, 1, StrategySubtree)
	if err != nil || len(sels) != 1 || &sels[0][0] != &share.Words()[0] || !share.Bit(1000) {
		t.Fatalf("share not passed through: %v", err)
	}
}

func TestExpandRejects(t *testing.T) {
	const domain = 9
	k, _ := mustGen(t, Params{Domain: domain}, 3)
	wrong, _ := mustGen(t, Params{Domain: domain + 1}, 3)
	short := *k
	short.CW = nil
	for name, b := range map[string]Batch{
		"empty":        {},
		"mixed":        {Keys: []*Key{k}, Shares: []*bitvec.Vector{bitvec.New(1 << domain)}},
		"nil key":      {Keys: []*Key{k, nil}},
		"wrong domain": {Keys: []*Key{wrong}},
		"malformed":    {Keys: []*Key{&short}},
		"nil share":    {Shares: []*bitvec.Vector{nil}},
		"short share":  {Shares: []*bitvec.Vector{bitvec.New(1 << (domain - 1))}},
	} {
		if _, err := b.Expand(1<<domain, 2, StrategySubtree); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := (Batch{Keys: []*Key{k}}).Expand(0, 2, StrategySubtree); err == nil {
		t.Error("a database of no records accepted")
	}
}
