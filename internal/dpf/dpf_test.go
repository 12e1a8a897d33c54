package dpf

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"math/big"
	mrand "math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func mustGen(t *testing.T, p Params, alpha uint64) (*Key, *Key) {
	t.Helper()
	k0, k1, err := Gen(p, alpha, nil)
	if err != nil {
		t.Fatalf("Gen(domain=%d, alpha=%d): %v", p.Domain, alpha, err)
	}
	return k0, k1
}

func randomIndex(t *testing.T, domain int) uint64 {
	t.Helper()
	if domain == 0 {
		return 0
	}
	n, err := rand.Int(rand.Reader, big.NewInt(1<<uint(domain)))
	if err != nil {
		t.Fatalf("rand.Int: %v", err)
	}
	return n.Uint64()
}

// TestPointFunctionExhaustive checks the defining DPF property for every
// index of small domains: Eval(k0,x) ⊕ Eval(k1,x) = 1 iff x = α.
func TestPointFunctionExhaustive(t *testing.T) {
	for domain := 0; domain <= 8; domain++ {
		n := uint64(1) << uint(domain)
		for alpha := uint64(0); alpha < n; alpha++ {
			k0, k1 := mustGen(t, Params{Domain: domain}, alpha)
			for x := uint64(0); x < n; x++ {
				b0, err := k0.Eval(x)
				if err != nil {
					t.Fatalf("Eval: %v", err)
				}
				b1, err := k1.Eval(x)
				if err != nil {
					t.Fatalf("Eval: %v", err)
				}
				got := b0 != b1
				want := x == alpha
				if got != want {
					t.Fatalf("domain=%d alpha=%d x=%d: share XOR = %v, want %v",
						domain, alpha, x, got, want)
				}
			}
		}
	}
}

// TestPointFunctionLargeDomain samples random indices on larger domains.
func TestPointFunctionLargeDomain(t *testing.T) {
	for _, domain := range []int{16, 20, 32, 47, MaxDomain} {
		alpha := randomIndex(t, domain)
		k0, k1 := mustGen(t, Params{Domain: domain}, alpha)

		check := func(x uint64, want bool) {
			b0, err := k0.Eval(x)
			if err != nil {
				t.Fatalf("Eval(%d): %v", x, err)
			}
			b1, err := k1.Eval(x)
			if err != nil {
				t.Fatalf("Eval(%d): %v", x, err)
			}
			if (b0 != b1) != want {
				t.Fatalf("domain=%d alpha=%d x=%d: share XOR = %v, want %v",
					domain, alpha, x, b0 != b1, want)
			}
		}

		check(alpha, true)
		// Nearby and random off-path indices must evaluate to zero.
		n := uint64(1) << uint(domain)
		for _, x := range []uint64{0, n - 1, alpha ^ 1, (alpha + 1) % n} {
			if x != alpha {
				check(x, false)
			}
		}
		for i := 0; i < 32; i++ {
			if x := randomIndex(t, domain); x != alpha {
				check(x, false)
			}
		}
	}
}

// TestKeyShareLooksRandom: a single key's full evaluation must not be the
// one-hot vector itself (that would leak α trivially). With overwhelming
// probability roughly half the bits are set.
func TestKeyShareLooksRandom(t *testing.T) {
	const domain = 12
	n := 1 << domain
	k0, _ := mustGen(t, Params{Domain: domain}, 42)
	v, err := k0.EvalFull(FullEvalOptions{})
	if err != nil {
		t.Fatalf("EvalFull: %v", err)
	}
	ones := v.OnesCount()
	if ones < n/4 || ones > 3*n/4 {
		t.Fatalf("share vector weight %d/%d outside [1/4, 3/4] — share is not pseudorandom", ones, n)
	}
}

func TestGenValidation(t *testing.T) {
	if _, _, err := Gen(Params{Domain: -1}, 0, nil); err == nil {
		t.Error("Gen accepted negative domain")
	}
	if _, _, err := Gen(Params{Domain: MaxDomain + 1}, 0, nil); err == nil {
		t.Error("Gen accepted oversized domain")
	}
	if _, _, err := Gen(Params{Domain: 4}, 16, nil); err == nil {
		t.Error("Gen accepted alpha outside index space")
	}
	for _, beta := range [][]byte{{1}, {}} {
		if _, _, err := Gen(Params{Domain: 4}, 0, beta); !errors.Is(err, ErrBetaLen) {
			t.Errorf("Gen with payload %v: err = %v, want ErrBetaLen", beta, err)
		}
	}
}

func TestEvalValidation(t *testing.T) {
	k0, _ := mustGen(t, Params{Domain: 12}, 3)
	if _, err := k0.Eval(1 << 12); err == nil {
		t.Error("Eval accepted out-of-domain index")
	}
	bad := *k0
	bad.CW = bad.CW[:2]
	if _, err := bad.Eval(0); err == nil {
		t.Error("Eval accepted malformed key (truncated CW)")
	}
}

func TestKeysDiffer(t *testing.T) {
	k0, k1 := mustGen(t, Params{Domain: 8}, 5)
	if k0.RootSeed == k1.RootSeed {
		t.Error("both parties share a root seed")
	}
	if k0.Party == k1.Party {
		t.Error("both keys claim the same party")
	}
	// Regenerating for the same alpha must give fresh keys.
	k0b, _ := mustGen(t, Params{Domain: 8}, 5)
	if k0.RootSeed == k0b.RootSeed {
		t.Error("two Gen calls produced identical root seeds")
	}
}

func TestDeterministicWithFixedRand(t *testing.T) {
	src := func() *mrand.Rand { return mrand.New(mrand.NewSource(7)) }
	p := Params{Domain: 10}
	p.Rand = src()
	a0, a1, err := Gen(p, 123, nil)
	if err != nil {
		t.Fatal(err)
	}
	p.Rand = src()
	b0, b1, err := Gen(p, 123, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a0.RootSeed != b0.RootSeed || a1.RootSeed != b1.RootSeed {
		t.Error("Gen with identical randomness produced different keys")
	}

	// Golden wire bytes: the key format is a protocol contract, so a
	// change to Gen, the PRG or the codec must show up here.
	k0, k1, err := Gen(Params{Domain: 9, Rand: src()}, 300, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, tc := range []struct {
		key  *Key
		want string
	}{
		{k0, "02000901f3ff4d451e429e182215aaee06a2d64b00" + goldenTail},
		{k1, "020109016d1aadc9e5031e4b99bf11ae0a796ebc01" + goldenTail},
	} {
		data, err := tc.key.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(data); got != tc.want {
			t.Errorf("party %d key bytes changed:\n got %s\nwant %s", i, got, tc.want)
		}
	}

	// A version-1 key (4-byte payload length, one correction word per
	// index bit, no leaf word) must be refused, not misread.
	v1, err := hex.DecodeString(goldenV1Key)
	if err != nil {
		t.Fatal(err)
	}
	var k Key
	if err := k.UnmarshalBinary(v1); err == nil || !strings.Contains(err.Error(), "unsupported version 1") {
		t.Errorf("UnmarshalBinary(v1 key) = %v, want unsupported version 1", err)
	}
}

// goldenTail is the two correction words and the leaf correction word both
// golden keys share.
const goldenTail = "f0fa406d87ec9a783e980e18abb0d14c01" +
	"e8bfa47908bc822df5c8c0d345fa94b702" +
	"f0f14c9bad8a532bca5cef94dacc2c6d"

// goldenV1Key is a party-0 domain-4 key in the retired version-1 format.
const goldenV1Key = "0100040100000000f3ff4d451e429e182215aaee06a2d64b00" +
	"36788f7bfddf5f8d11d9dd8e64cfe34f02d0d9e428b943887723364d77605bfe07" +
	"03a6682e800ace9f96b1fb5a91996e25ab0386d027c25a03793e9b673f50fb3efdb103"

// TestWireSizeLogarithmic pins the v2 key size: 21 header bytes, 17 per
// tree level above the 128-bit leaf blocks, and a 16-byte leaf word.
func TestWireSizeLogarithmic(t *testing.T) {
	for _, tc := range []struct{ domain, want int }{
		{0, 37}, {6, 37}, {7, 37}, {8, 54}, {10, 88}, {16, 190},
	} {
		k, _ := mustGen(t, Params{Domain: tc.domain}, 0)
		if got := k.WireSize(); got != tc.want {
			t.Errorf("domain %d: WireSize() = %d, want %d", tc.domain, got, tc.want)
		}
		data, err := k.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if len(data) != k.WireSize() {
			t.Fatalf("WireSize() = %d but MarshalBinary produced %d bytes", k.WireSize(), len(data))
		}
	}
	for d := 0; d <= MaxDomain; d++ {
		k, _ := mustGen(t, Params{Domain: d}, 0)
		data, err := k.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if got := KeyWireSize(d); got != k.WireSize() || got != len(data) {
			t.Errorf("domain %d: KeyWireSize = %d, WireSize() = %d, marshalled %d bytes",
				d, got, k.WireSize(), len(data))
		}
	}
}

func TestNumIndices(t *testing.T) {
	k, _ := mustGen(t, Params{Domain: 10}, 0)
	if k.NumIndices() != 1024 {
		t.Fatalf("NumIndices() = %d, want 1024", k.NumIndices())
	}
}

// Property test: for random (domain, alpha, x), the XOR of shares equals
// the point function.
func TestQuickPointFunction(t *testing.T) {
	f := func(domainRaw uint8, alphaRaw, xRaw uint64) bool {
		domain := int(domainRaw)%20 + 1
		n := uint64(1) << uint(domain)
		alpha, x := alphaRaw%n, xRaw%n
		k0, k1, err := Gen(Params{Domain: domain}, alpha, nil)
		if err != nil {
			return false
		}
		b0, err := k0.Eval(x)
		if err != nil {
			return false
		}
		b1, err := k1.Eval(x)
		if err != nil {
			return false
		}
		return (b0 != b1) == (x == alpha)
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property test: marshalling round-trips and the unmarshalled key
// evaluates identically.
func TestQuickMarshalRoundTrip(t *testing.T) {
	f := func(domainRaw uint8, alphaRaw uint64) bool {
		domain := int(domainRaw)%14 + 1
		n := uint64(1) << uint(domain)
		alpha := alphaRaw % n
		k0, _, err := Gen(Params{Domain: domain}, alpha, nil)
		if err != nil {
			return false
		}
		data, err := k0.MarshalBinary()
		if err != nil {
			return false
		}
		var back Key
		if err := back.UnmarshalBinary(data); err != nil {
			return false
		}
		if back.LeafCW != k0.LeafCW {
			return false
		}
		for x := uint64(0); x < n; x += 1 + n/16 {
			wb, err := k0.Eval(x)
			if err != nil {
				return false
			}
			gb, err := back.Eval(x)
			if err != nil || wb != gb {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestUnmarshalRejectsCorruptKeys(t *testing.T) {
	k0, _ := mustGen(t, Params{Domain: 10}, 3)
	good, err := k0.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	corrupt := func(name string, mutate func([]byte) []byte) {
		t.Run(name, func(t *testing.T) {
			data := mutate(append([]byte(nil), good...))
			var k Key
			if err := k.UnmarshalBinary(data); err == nil {
				t.Errorf("UnmarshalBinary accepted corrupted key (%s)", name)
			}
		})
	}

	corrupt("empty", func(b []byte) []byte { return nil })
	corrupt("short", func(b []byte) []byte { return b[:10] })
	corrupt("bad version", func(b []byte) []byte { b[0] = 99; return b })
	corrupt("bad party", func(b []byte) []byte { b[1] = 2; return b })
	corrupt("bad domain", func(b []byte) []byte { b[2] = 200; return b })
	corrupt("bad prg", func(b []byte) []byte { b[3] = 9; return b })
	corrupt("retired keyed prg", func(b []byte) []byte { b[3] = 2; return b })
	corrupt("truncated", func(b []byte) []byte { return b[:len(b)-1] })
	corrupt("extended", func(b []byte) []byte { return append(b, 0) })
	corrupt("bad root bit", func(b []byte) []byte { b[20] = 7; return b })
	corrupt("bad cw bits", func(b []byte) []byte { b[keyHeaderSize+16] = 0xF; return b })
}

func BenchmarkGen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := Gen(Params{Domain: 30}, 12345, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvalSingle(b *testing.B) {
	k0, _, err := Gen(Params{Domain: 30}, 12345, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k0.Eval(uint64(i) & (1<<30 - 1)); err != nil {
			b.Fatal(err)
		}
	}
}
