package aesprf

import (
	"bytes"
	"crypto/aes"
	"crypto/rand"
	"testing"
	"testing/quick"
)

func randomBlock(t *testing.T) Block {
	t.Helper()
	var b Block
	if _, err := rand.Read(b[:]); err != nil {
		t.Fatalf("rand.Read: %v", err)
	}
	return b
}

func TestExpandDeterministic(t *testing.T) {
	t.Run("fixedkey", func(t *testing.T) {
		g := NewFixedKey()
		seed := Block{1, 2, 3, 4}
		l1, r1 := g.Expand(seed)
		l2, r2 := g.Expand(seed)
		if l1 != l2 || r1 != r2 {
			t.Fatal("Expand is not deterministic")
		}
	})
}

// TestExpandIsMMO checks Expand against the construction computed here
// byte by byte: left = AES_K0(s) ⊕ s and right = AES_K1(s) ⊕ s.
func TestExpandIsMMO(t *testing.T) {
	mmo := func(key [BlockSize]byte, s Block) Block {
		c, err := aes.NewCipher(key[:])
		if err != nil {
			t.Fatal(err)
		}
		var out Block
		c.Encrypt(out[:], s[:])
		for i := range out {
			out[i] ^= s[i]
		}
		return out
	}
	g := NewFixedKey()
	for range 16 {
		s := randomBlock(t)
		l, r := g.Expand(s)
		if l != mmo(fixedKeyLeft, s) || r != mmo(fixedKeyRight, s) {
			t.Fatalf("Expand(%x) differs from the byte-wise MMO construction", s)
		}
	}
}

func TestExpandChildrenDiffer(t *testing.T) {
	t.Run("fixedkey", func(t *testing.T) {
		seed := randomBlock(t)
		l, r := NewFixedKey().Expand(seed)
		if l == r {
			t.Fatal("left and right children are equal")
		}
		if l == seed || r == seed {
			t.Fatal("child equals seed")
		}
	})
}

func TestDistinctSeedsDistinctChildren(t *testing.T) {
	t.Run("fixedkey", func(t *testing.T) {
		g := NewFixedKey()
		l1, r1 := g.Expand(Block{1})
		l2, r2 := g.Expand(Block{2})
		if l1 == l2 || r1 == r2 {
			t.Fatal("distinct seeds produced colliding children")
		}
	})
}

func TestExpandBatchMatchesSingle(t *testing.T) {
	t.Run("fixedkey", func(t *testing.T) {
		g := NewFixedKey()
		const n = 33 // deliberately not a power of two
		seeds := make([]Block, n)
		for i := range seeds {
			seeds[i] = randomBlock(t)
		}
		left := make([]Block, n)
		right := make([]Block, n)
		g.ExpandBatch(seeds, left, right)
		for i := range seeds {
			wl, wr := g.Expand(seeds[i])
			if left[i] != wl || right[i] != wr {
				t.Fatalf("batch result %d differs from single expansion", i)
			}
		}
	})
}

func TestExpandBatchEmpty(t *testing.T) {
	g := NewFixedKey()
	g.ExpandBatch(nil, nil, nil) // must not panic
}

func TestExpandBatchLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched batch lengths did not panic")
		}
	}()
	NewFixedKey().ExpandBatch(make([]Block, 2), make([]Block, 1), make([]Block, 2))
}

// Property: expansion output bytes look balanced — over many random seeds
// the children are never all-zero and never equal each other.
func TestQuickExpansionNonDegenerate(t *testing.T) {
	g := NewFixedKey()
	zero := Block{}
	f := func(seed Block) bool {
		l, r := g.Expand(seed)
		return l != r && l != zero && r != zero
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: batch expansion agrees with single expansion for random batches.
func TestQuickBatchAgrees(t *testing.T) {
	g := NewFixedKey()
	f := func(seeds []Block) bool {
		left := make([]Block, len(seeds))
		right := make([]Block, len(seeds))
		g.ExpandBatch(seeds, left, right)
		for i := range seeds {
			wl, wr := g.Expand(seeds[i])
			if left[i] != wl || right[i] != wr {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Avalanche sanity check: flipping one seed bit flips roughly half the
// output bits (between 20% and 80% — generous bounds for a unit test).
func TestAvalanche(t *testing.T) {
	g := NewFixedKey()
	seed := randomBlock(t)
	flipped := seed
	flipped[0] ^= 1
	l1, _ := g.Expand(seed)
	l2, _ := g.Expand(flipped)
	diff := 0
	for i := range l1 {
		b := l1[i] ^ l2[i]
		for b != 0 {
			diff += int(b & 1)
			b >>= 1
		}
	}
	if diff < 128/5 || diff > 128*4/5 {
		t.Fatalf("avalanche: %d/128 bits differ, outside [25, 102]", diff)
	}
}

func TestBlockIsComparable(t *testing.T) {
	a := Block{1}
	b := Block{1}
	if a != b {
		t.Fatal("identical blocks compare unequal")
	}
	if bytes.Compare(a[:], b[:]) != 0 {
		t.Fatal("byte views differ")
	}
}

func BenchmarkExpandSingle(b *testing.B) {
	g := NewFixedKey()
	seed := Block{1, 2, 3}
	b.SetBytes(2 * BlockSize)
	for i := 0; i < b.N; i++ {
		seed, _ = g.Expand(seed)
	}
}

func BenchmarkExpandBatch1024(b *testing.B) {
	g := NewFixedKey()
	const n = 1024
	seeds := make([]Block, n)
	left := make([]Block, n)
	right := make([]Block, n)
	for i := range seeds {
		seeds[i][0] = byte(i)
		seeds[i][1] = byte(i >> 8)
	}
	b.SetBytes(2 * BlockSize * n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ExpandBatch(seeds, left, right)
	}
}
