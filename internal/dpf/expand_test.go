package dpf

import (
	"testing"

	"github.com/impir/impir/internal/bitvec"
)

// TestExpand: for every width and worker count the front end returns
// exactly each key's full-domain evaluation, in order, and passes shares
// through.
func TestExpand(t *testing.T) {
	const domain = 10
	keys := make([]*Key, 5)
	for i := range keys {
		keys[i], _ = mustGen(t, Params{Domain: domain}, uint64(i*200))
	}
	for _, b := range []int{1, len(keys)} {
		for _, workers := range []int{0, 1, 3, 8} {
			sels, err := Batch{Keys: keys[:b]}.Expand(domain, workers, StrategyMemoryBounded)
			if err != nil {
				t.Fatal(err)
			}
			for i, k := range keys[:b] {
				want := referenceFull(t, k)
				got := bitvec.New(1 << domain)
				copy(got.Words(), sels[i])
				if !got.Equal(want) {
					t.Fatalf("B=%d workers=%d key %d: selector differs from pointwise Eval", b, workers, i)
				}
			}
		}
	}

	share := bitvec.New(1 << domain)
	share.Set(7)
	sels, err := Batch{Shares: []*bitvec.Vector{share}}.Expand(domain, 1, StrategySubtree)
	if err != nil || len(sels) != 1 || &sels[0][0] != &share.Words()[0] {
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
		if _, err := b.Expand(domain, 2, StrategySubtree); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
