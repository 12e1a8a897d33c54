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
		bit, err := k.Eval(uint64(x))
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
		k0, k1 := mustGen(t, Params{Domain: domain}, alpha)
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
		k0, k1 := mustGen(t, Params{Domain: domain}, alpha)
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

// TestEvalFullTruncationBoundary covers the domains around the ν = 7
// early-termination cut (depth 0 up to depth 2) and the α values at the
// edges of a 128-bit leaf block: every walker configuration must equal
// pointwise Eval, and the two parties' vectors must XOR to exactly e_α.
func TestEvalFullTruncationBoundary(t *testing.T) {
	for domain := 0; domain <= 9; domain++ {
		n := uint64(1) << uint(domain)
		for _, alpha := range []uint64{0, 63, 64, 127, 128, n - 1} {
			if alpha >= n {
				continue
			}
			k0, k1 := mustGen(t, Params{Domain: domain}, alpha)
			want0, want1 := referenceFull(t, k0), referenceFull(t, k1)
			for _, s := range allStrategies() {
				for _, workers := range []int{1, 2, 3, 8} {
					opts := FullEvalOptions{Strategy: s, Workers: workers}
					v0, err := k0.EvalFull(opts)
					if err != nil {
						t.Fatal(err)
					}
					v1, err := k1.EvalFull(opts)
					if err != nil {
						t.Fatal(err)
					}
					if !v0.Equal(want0) || !v1.Equal(want1) {
						t.Fatalf("domain=%d alpha=%d %+v: EvalFull differs from pointwise Eval", domain, alpha, opts)
					}
					v0.Xor(v1)
					if v0.OnesCount() != 1 || !v0.Bit(int(alpha)) {
						t.Fatalf("domain=%d alpha=%d %+v: shares XOR to weight %d, want e_alpha",
							domain, alpha, opts, v0.OnesCount())
					}
				}
			}
		}
	}
}

// TestEvalFullAllocs pins the per-call allocation count: the walker's
// scratch is allocated once per worker, not per chunk.
func TestEvalFullAllocs(t *testing.T) {
	k0, _ := mustGen(t, Params{Domain: 14}, 12345)
	opts := FullEvalOptions{Strategy: StrategyMemoryBounded, Workers: 1}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := k0.EvalFull(opts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Fatalf("EvalFull(domain 14, memory-bounded, 1 worker) = %v allocations, want ≤ 8", allocs)
	}
}

// TestEvalFullChunkSizes exercises chunking edge cases of the walker both
// strategies share: chunk larger than the domain, chunks smaller than one
// 128-leaf terminal node, non-power-of-two chunks.
func TestEvalFullChunkSizes(t *testing.T) {
	const domain = 12
	alpha := randomIndex(t, domain)
	k0, _ := mustGen(t, Params{Domain: domain}, alpha)
	want := referenceFull(t, k0)
	for _, chunk := range []int{1, 63, 64, 100, 128, 384, 1 << 10, 1 << 20} {
		got := bitvec.New(1 << domain)
		k0.evalSubtreeParallel(got, 4, chunk, 1<<domain)
		if !got.Equal(want) {
			t.Fatalf("chunk=%d: share mismatch", chunk)
		}
	}
}

func TestEvalFullWorkerExcess(t *testing.T) {
	// More workers than leaves, or than terminal nodes, must still work.
	for _, domain := range []int{3, 9} {
		k0, _ := mustGen(t, Params{Domain: domain}, 5)
		want := referenceFull(t, k0)
		got, err := k0.EvalFull(FullEvalOptions{Workers: 64})
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("domain=%d: share mismatch with excess workers", domain)
		}
	}
}

func TestEvalFullUnknownStrategy(t *testing.T) {
	k0, _ := mustGen(t, Params{Domain: 3}, 0)
	if _, err := k0.EvalFull(FullEvalOptions{Strategy: Strategy(42)}); err == nil {
		t.Fatal("EvalFull accepted unknown strategy")
	}
}

func TestEvalFullMalformedKey(t *testing.T) {
	k0, _ := mustGen(t, Params{Domain: 10}, 0)
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
// level-by-level oracle and, on 64 sampled indices, pointwise Eval. With
// a leaf bound N (leavesRaw > 0), the evaluation bounded to N leaves
// under both strategies and 1–8 workers must equal the full one on
// [0, N) and be zero beyond it.
func FuzzEvalFull(f *testing.F) {
	f.Add(uint8(0), uint64(0), uint8(1), false, int64(1), uint64(0))
	f.Add(uint8(1), uint64(1), uint8(2), true, int64(2), uint64(0))
	f.Add(uint8(6), uint64(13), uint8(4), false, int64(3), uint64(0))
	f.Add(uint8(7), uint64(100), uint8(7), true, int64(4), uint64(0))
	f.Add(uint8(12), uint64(4000), uint8(3), false, int64(5), uint64(0))
	f.Add(uint8(16), uint64(65535), uint8(8), true, int64(6), uint64(0))
	// Leaf bounds 1, 127, 128, 129, 2^d−1 and 2^d, and the 700 and
	// 12,112 records of the non-power-of-two server tests.
	f.Add(uint8(10), uint64(0), uint8(3), false, int64(7), uint64(1))
	f.Add(uint8(9), uint64(126), uint8(2), true, int64(8), uint64(127))
	f.Add(uint8(9), uint64(127), uint8(5), false, int64(9), uint64(128))
	f.Add(uint8(7), uint64(127), uint8(1), true, int64(10), uint64(127))
	f.Add(uint8(11), uint64(128), uint8(8), true, int64(11), uint64(129))
	f.Add(uint8(13), uint64(8190), uint8(6), false, int64(12), uint64(8191))
	f.Add(uint8(13), uint64(8191), uint8(4), true, int64(13), uint64(8192))
	f.Add(uint8(10), uint64(699), uint8(8), false, int64(14), uint64(700))
	f.Add(uint8(14), uint64(12111), uint8(8), true, int64(15), uint64(12112))
	f.Fuzz(func(t *testing.T, domainRaw uint8, alphaRaw uint64, workersRaw uint8, bounded bool, seed int64, leavesRaw uint64) {
		domain := int(domainRaw) % 25
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
				bit, err := k.Eval(x)
				if err != nil {
					t.Fatal(err)
				}
				if got.Bit(int(x)) != bit {
					t.Fatalf("domain=%d alpha=%d %+v party %d: EvalFull[%d] differs from Eval",
						domain, alpha, opts, k.Party, x)
				}
			}
			if leavesRaw == 0 {
				continue
			}
			leaves := int((leavesRaw-1)%uint64(n)) + 1
			for _, s := range allStrategies() {
				for workers := 1; workers <= 8; workers++ {
					opts := FullEvalOptions{Strategy: s, Workers: workers, Leaves: leaves}
					prefix, err := k.EvalFull(opts)
					if err != nil {
						t.Fatal(err)
					}
					if x := firstPrefixMismatch(prefix, got, leaves); x >= 0 {
						t.Fatalf("domain=%d alpha=%d %+v party %d: bit %d differs from the unbounded evaluation",
							domain, alpha, opts, k.Party, x)
					}
				}
			}
		}
	})
}

// firstPrefixMismatch returns the first index at which prefix differs
// from full below leaves or is set from leaves on, or −1.
func firstPrefixMismatch(prefix, full *bitvec.Vector, leaves int) int {
	if prefix.Len() != full.Len() {
		return 0
	}
	for x := 0; x < prefix.Len(); x++ {
		if prefix.Bit(x) != (x < leaves && full.Bit(x)) {
			return x
		}
	}
	return -1
}

// TestEvalFullLeafBoundRejects: a bound beyond the domain or below zero
// is an error, not a silent full evaluation.
func TestEvalFullLeafBoundRejects(t *testing.T) {
	k0, _ := mustGen(t, Params{Domain: 9}, 3)
	for _, leaves := range []int{-1, 513} {
		if _, err := k0.EvalFull(FullEvalOptions{Leaves: leaves}); err == nil {
			t.Errorf("Leaves %d accepted on a 512-index domain", leaves)
		}
	}
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
