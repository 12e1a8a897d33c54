package dpf

import (
	mrand "math/rand"
	"testing"

	"github.com/impir/impir/internal/bitvec"
)

func allStrategies() []Strategy {
	return []Strategy{StrategySubtree, StrategyMemoryBounded}
}

// referenceFull computes the full-domain evaluation one index at a time
// through the single-point Eval path.
func referenceFull(t *testing.T, k *Key) *bitvec.Vector {
	t.Helper()
	n := int(k.NumIndices())
	out := bitvec.New(n)
	for x := 0; x < n; x++ {
		bit, _, err := k.Eval(uint64(x))
		if err != nil {
			t.Fatalf("Eval(%d): %v", x, err)
		}
		out.SetTo(x, bit)
	}
	return out
}

// TestEvalFullMatchesPointEval cross-checks every strategy against the
// single-point evaluator on a spread of domains, including domains smaller
// than a machine word and non-trivial worker counts.
func TestEvalFullMatchesPointEval(t *testing.T) {
	domains := []int{0, 1, 2, 5, 6, 7, 10, 13}
	for _, domain := range domains {
		alpha := randomIndex(t, domain)
		k0, k1 := mustGen(t, Params{Domain: domain}, alpha, nil)
		want0 := referenceFull(t, k0)
		want1 := referenceFull(t, k1)
		for _, s := range allStrategies() {
			for _, workers := range []int{1, 2, 4, 7} {
				opts := FullEvalOptions{Strategy: s, Workers: workers}
				got0, err := k0.EvalFull(opts)
				if err != nil {
					t.Fatalf("EvalFull(%v, w=%d): %v", s, workers, err)
				}
				if !got0.Equal(want0) {
					t.Fatalf("domain=%d strategy=%v workers=%d: party-0 share mismatch", domain, s, workers)
				}
				got1, err := k1.EvalFull(opts)
				if err != nil {
					t.Fatalf("EvalFull(%v, w=%d): %v", s, workers, err)
				}
				if !got1.Equal(want1) {
					t.Fatalf("domain=%d strategy=%v workers=%d: party-1 share mismatch", domain, s, workers)
				}
			}
		}
	}
}

// TestEvalFullSharesXorToOneHot checks the end-to-end PIR property on the
// full domain: the XOR of both parties' share vectors is the indicator of α.
func TestEvalFullSharesXorToOneHot(t *testing.T) {
	for _, domain := range []int{4, 9, 12, 15} {
		alpha := randomIndex(t, domain)
		k0, k1 := mustGen(t, Params{Domain: domain}, alpha, nil)
		v0, err := k0.EvalFull(FullEvalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		v1, err := k1.EvalFull(FullEvalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		v0.Xor(v1)
		if v0.OnesCount() != 1 {
			t.Fatalf("domain=%d: combined vector weight = %d, want 1", domain, v0.OnesCount())
		}
		if !v0.Bit(int(alpha)) {
			t.Fatalf("domain=%d: combined vector not set at alpha=%d", domain, alpha)
		}
	}
}

// TestEvalFullChunkSizes exercises chunking edge cases of the walker both
// strategies share: chunk larger than the domain, tiny chunks,
// non-power-of-two chunks.
func TestEvalFullChunkSizes(t *testing.T) {
	const domain = 12
	alpha := randomIndex(t, domain)
	k0, _ := mustGen(t, Params{Domain: domain}, alpha, nil)
	want := referenceFull(t, k0)
	for _, chunk := range []int{1, 63, 64, 100, 1 << 10, 1 << 20} {
		got := bitvec.New(1 << domain)
		k0.evalSubtreeParallel(got, 4, chunk)
		if !got.Equal(want) {
			t.Fatalf("chunk=%d: share mismatch", chunk)
		}
	}
}

func TestEvalFullWorkerExcess(t *testing.T) {
	// More workers than leaves must still work.
	k0, _ := mustGen(t, Params{Domain: 3}, 5, nil)
	want := referenceFull(t, k0)
	got, err := k0.EvalFull(FullEvalOptions{Workers: 64})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("share mismatch with excess workers")
	}
}

func TestEvalFullUnknownStrategy(t *testing.T) {
	k0, _ := mustGen(t, Params{Domain: 3}, 0, nil)
	if _, err := k0.EvalFull(FullEvalOptions{Strategy: Strategy(42)}); err == nil {
		t.Fatal("EvalFull accepted unknown strategy")
	}
}

func TestEvalFullMalformedKey(t *testing.T) {
	k0, _ := mustGen(t, Params{Domain: 5}, 0, nil)
	bad := *k0
	bad.CW = bad.CW[:1]
	if _, err := bad.EvalFull(FullEvalOptions{}); err == nil {
		t.Fatal("EvalFull accepted malformed key")
	}
}

func TestStrategyString(t *testing.T) {
	for _, s := range allStrategies() {
		if s.String() == "" {
			t.Errorf("Strategy(%d) has empty String()", s)
		}
	}
	if Strategy(99).String() == "" {
		t.Error("unknown strategy produced empty string")
	}
}

// FuzzEvalFull is the differential test for the full-domain walker: for
// any domain, α, worker count and strategy, EvalFull must equal the
// level-by-level oracle and, on 64 sampled indices, pointwise Eval.
func FuzzEvalFull(f *testing.F) {
	f.Add(uint8(0), uint64(0), uint8(1), false, int64(1))
	f.Add(uint8(1), uint64(1), uint8(2), true, int64(2))
	f.Add(uint8(6), uint64(13), uint8(4), false, int64(3))
	f.Add(uint8(7), uint64(100), uint8(7), true, int64(4))
	f.Add(uint8(12), uint64(4000), uint8(3), false, int64(5))
	f.Add(uint8(16), uint64(65535), uint8(8), true, int64(6))
	f.Fuzz(func(t *testing.T, domainRaw uint8, alphaRaw uint64, workersRaw uint8, bounded bool, seed int64) {
		domain := int(domainRaw) % 17
		n := 1 << uint(domain)
		alpha := alphaRaw % uint64(n)
		opts := FullEvalOptions{Strategy: StrategySubtree, Workers: int(workersRaw)%8 + 1}
		if bounded {
			opts.Strategy = StrategyMemoryBounded
		}
		rng := mrand.New(mrand.NewSource(seed))
		k0, k1, err := Gen(Params{Domain: domain, Rand: rng}, alpha, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []*Key{k0, k1} {
			got, err := k.EvalFull(opts)
			if err != nil {
				t.Fatal(err)
			}
			want := bitvec.New(n)
			k.evalLevelByLevel(want)
			if !got.Equal(want) {
				t.Fatalf("domain=%d alpha=%d %+v party %d: walker differs from level-by-level oracle",
					domain, alpha, opts, k.Party)
			}
			for i := 0; i < 64; i++ {
				x := uint64(rng.Intn(n))
				bit, _, err := k.Eval(x)
				if err != nil {
					t.Fatal(err)
				}
				if got.Bit(int(x)) != bit {
					t.Fatalf("domain=%d alpha=%d %+v party %d: EvalFull[%d] differs from Eval",
						domain, alpha, opts, k.Party, x)
				}
			}
		}
	})
}

func benchmarkEvalFull(b *testing.B, s Strategy, domain, workers int) {
	k0, _, err := Gen(Params{Domain: domain}, 12345%(1<<uint(domain)), nil)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(1) << uint(domain-3)) // output bits → bytes
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k0.EvalFull(FullEvalOptions{Strategy: s, Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvalFullSubtree(b *testing.B)       { benchmarkEvalFull(b, StrategySubtree, 18, 4) }
func BenchmarkEvalFullMemoryBounded(b *testing.B) { benchmarkEvalFull(b, StrategyMemoryBounded, 18, 4) }
