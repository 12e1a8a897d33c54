// Package dpf implements distributed point functions (DPFs) for two-party
// multi-server PIR, following the tree-based construction of Gilboa–Ishai
// (EUROCRYPT'14) with the correction-word optimisation of Boyle–Gilboa–Ishai
// as used by IM-PIR (§3.1–3.2 of the paper).
//
// A DPF secret-shares a point function P_{α,β} — the function that is β at
// index α and zero elsewhere — into two keys k₀ and k₁ such that neither
// key alone reveals α or β, yet for every x:
//
//	Eval(k₀, x) ⊕ Eval(k₁, x) = P_{α,β}(x)
//
// For PIR the client generates keys for P_{α,1}, sends one to each server,
// and each server's full-domain evaluation yields an N-bit share vector
// whose XOR is the one-hot query vector. Each key consists of a root seed
// plus log₂(N)+1 correction words — the "two 2-dimensional codewords" of
// the paper's §3.1 — so keys are O(λ·log N) bits rather than O(N).
//
// Evaluation expands a GGM tree: every node holds a 128-bit seed and a
// control bit, and children are derived with an AES-based length-doubling
// PRG (see package aesprf). The control bits of the two parties differ
// exactly on the root-to-α path, so the leaf control bit is the share of
// P_{α,1}(x). An output correction word extends this to multi-byte β.
package dpf

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"github.com/impir/impir/internal/aesprf"
)

// MaxDomain is the largest supported tree depth (log₂ of the index space).
const MaxDomain = 62

// prg is the fixed-key AES length-doubling PRG every key is expanded with.
var prg = aesprf.NewFixedKey()

// Params configures key generation.
type Params struct {
	// Domain is log₂ of the index space: keys address indices in
	// [0, 1<<Domain). Must be in [0, MaxDomain].
	Domain int
	// BetaLen is the payload length in bytes. Zero means a pure
	// single-bit DPF (the PIR case: β = 1).
	BetaLen int
	// Rand is the randomness source for seeds. Nil means crypto/rand.
	Rand io.Reader
}

// CorrectionWord is the per-level public correction applied by the party
// whose control bit is set.
type CorrectionWord struct {
	Seed   aesprf.Block
	TLeft  bool
	TRight bool
}

// Key is one party's DPF key. Keys are secret: revealing both keys of a
// pair reveals α.
type Key struct {
	Party    uint8 // 0 or 1
	Domain   uint8 // log₂ of the index space
	RootSeed aesprf.Block
	RootT    bool
	CW       []CorrectionWord // one per tree level
	OutputCW []byte           // length BetaLen; nil for single-bit DPFs
}

// BetaLen returns the payload length in bytes (0 for single-bit keys).
func (k *Key) BetaLen() int { return len(k.OutputCW) }

// NumIndices returns the size of the key's index space, 1<<Domain.
func (k *Key) NumIndices() uint64 { return 1 << k.Domain }

var (
	// ErrDomainRange indicates a Domain outside [0, MaxDomain].
	ErrDomainRange = errors.New("dpf: domain out of range")
	// ErrAlphaRange indicates α ≥ 2^Domain.
	ErrAlphaRange = errors.New("dpf: alpha outside index space")
	// ErrBetaLen indicates β does not match Params.BetaLen.
	ErrBetaLen = errors.New("dpf: beta length mismatch")
)

// Gen produces a key pair for the point function P_{α,β}.
//
// With BetaLen == 0, beta must be nil and the generated keys share the
// single-bit indicator function: the XOR of the two parties' evaluation
// bits is 1 exactly at α.
func Gen(p Params, alpha uint64, beta []byte) (k0, k1 *Key, err error) {
	if p.Domain < 0 || p.Domain > MaxDomain {
		return nil, nil, fmt.Errorf("%w: %d", ErrDomainRange, p.Domain)
	}
	if p.Domain < 64 && alpha >= 1<<uint(p.Domain) {
		return nil, nil, fmt.Errorf("%w: alpha=%d domain=%d", ErrAlphaRange, alpha, p.Domain)
	}
	if len(beta) != p.BetaLen {
		return nil, nil, fmt.Errorf("%w: have %d, want %d", ErrBetaLen, len(beta), p.BetaLen)
	}
	rng := p.Rand
	if rng == nil {
		rng = rand.Reader
	}

	var s0, s1 aesprf.Block
	if _, err := io.ReadFull(rng, s0[:]); err != nil {
		return nil, nil, fmt.Errorf("dpf: read root seed: %w", err)
	}
	if _, err := io.ReadFull(rng, s1[:]); err != nil {
		return nil, nil, fmt.Errorf("dpf: read root seed: %w", err)
	}

	k0 = &Key{Party: 0, Domain: uint8(p.Domain), RootSeed: s0, RootT: false}
	k1 = &Key{Party: 1, Domain: uint8(p.Domain), RootSeed: s1, RootT: true}
	k0.CW = make([]CorrectionWord, p.Domain)
	k1.CW = make([]CorrectionWord, p.Domain)

	t0, t1 := false, true
	for level := 0; level < p.Domain; level++ {
		s0L, t0L, s0R, t0R := expandNode(s0)
		s1L, t1L, s1R, t1R := expandNode(s1)

		// α's bit at this level, MSB first.
		aBit := alpha>>(uint(p.Domain)-1-uint(level))&1 == 1

		var sKeep0, sKeep1, sLose0, sLose1 aesprf.Block
		var tKeep0, tKeep1 bool
		if aBit {
			sKeep0, tKeep0, sLose0 = s0R, t0R, s0L
			sKeep1, tKeep1, sLose1 = s1R, t1R, s1L
		} else {
			sKeep0, tKeep0, sLose0 = s0L, t0L, s0R
			sKeep1, tKeep1, sLose1 = s1L, t1L, s1R
		}

		cw := CorrectionWord{
			Seed:   xorBlocks(sLose0, sLose1),
			TLeft:  t0L != t1L != !aBit, // t0L ⊕ t1L ⊕ ¬aBit … see note below
			TRight: t0R != t1R != aBit,
		}
		// Note: x != y on bools is XOR; the chained form above associates
		// left-to-right, computing (t0L ⊕ t1L) ⊕ (aBit ⊕ 1) for TLeft and
		// (t0R ⊕ t1R) ⊕ aBit for TRight, per the BGI correction rule.
		k0.CW[level] = cw
		k1.CW[level] = cw

		tKeepCW := cw.TRight
		if !aBit {
			tKeepCW = cw.TLeft
		}

		s0, t0 = applyCorrection(sKeep0, tKeep0, t0, cw.Seed, tKeepCW)
		s1, t1 = applyCorrection(sKeep1, tKeep1, t1, cw.Seed, tKeepCW)
	}

	if p.BetaLen > 0 {
		ocw := make([]byte, p.BetaLen)
		c0 := convertSeed(s0, p.BetaLen)
		c1 := convertSeed(s1, p.BetaLen)
		for i := range ocw {
			ocw[i] = beta[i] ^ c0[i] ^ c1[i]
		}
		k0.OutputCW = ocw
		k1.OutputCW = append([]byte(nil), ocw...)
	}
	return k0, k1, nil
}

// Eval returns this party's bit share of P_{α,1}(x) and, for keys carrying
// a payload, the byte share of β. The XOR of the two parties' bit shares
// is 1 exactly at x == α; the XOR of the byte shares is β at α and zero
// elsewhere.
func (k *Key) Eval(x uint64) (bit bool, value []byte, err error) {
	if k.Domain < 64 && x >= 1<<uint(k.Domain) {
		return false, nil, fmt.Errorf("%w: x=%d domain=%d", ErrAlphaRange, x, k.Domain)
	}
	if len(k.CW) != int(k.Domain) {
		return false, nil, fmt.Errorf("dpf: malformed key: %d correction words for domain %d", len(k.CW), k.Domain)
	}
	s, t := k.RootSeed, k.RootT
	for level := 0; level < int(k.Domain); level++ {
		sL, tL, sR, tR := expandNode(s)
		if t {
			cw := &k.CW[level]
			sL = xorBlocks(sL, cw.Seed)
			sR = xorBlocks(sR, cw.Seed)
			tL = tL != cw.TLeft
			tR = tR != cw.TRight
		}
		if x>>(uint(k.Domain)-1-uint(level))&1 == 1 {
			s, t = sR, tR
		} else {
			s, t = sL, tL
		}
	}
	if len(k.OutputCW) == 0 {
		return t, nil, nil
	}
	value = convertSeed(s, len(k.OutputCW))
	if t {
		for i := range value {
			value[i] ^= k.OutputCW[i]
		}
	}
	return t, value, nil
}

// expandNode derives the two children of a node, extracting and clearing
// the control bit from the low bit of each child seed.
func expandNode(s aesprf.Block) (sL aesprf.Block, tL bool, sR aesprf.Block, tR bool) {
	sL, sR = prg.Expand(s)
	tL = sL[0]&1 == 1
	tR = sR[0]&1 == 1
	sL[0] &^= 1
	sR[0] &^= 1
	return sL, tL, sR, tR
}

func applyCorrection(sKeep aesprf.Block, tKeep, tPrev bool, cwSeed aesprf.Block, cwT bool) (aesprf.Block, bool) {
	if tPrev {
		return xorBlocks(sKeep, cwSeed), tKeep != cwT
	}
	return sKeep, tKeep
}

func xorBlocks(a, b aesprf.Block) aesprf.Block {
	for i := range a {
		a[i] ^= b[i]
	}
	return a
}

// convertCipher is a third fixed-key AES permutation used to map leaf
// seeds to payload bytes, so payload bytes never expose raw tree seeds.
var convertCipher = newConvertCipher()

func newConvertCipher() cipher.Block {
	key := [16]byte{
		0x16, 0x18, 0x03, 0x39, 0x88, 0x74, 0x98, 0x94,
		0x84, 0x82, 0x04, 0x58, 0x68, 0x34, 0x36, 0x56,
	}
	c, err := aes.NewCipher(key[:])
	if err != nil {
		// Unreachable: a 16-byte key is always valid.
		panic(fmt.Sprintf("dpf: convert cipher: %v", err))
	}
	return c
}

// convertSeed maps a leaf seed to n pseudorandom payload bytes using the
// convert cipher in a counter-like mode.
func convertSeed(s aesprf.Block, n int) []byte {
	out := make([]byte, 0, (n+15)/16*16)
	var block [16]byte
	for ctr := uint64(0); len(out) < n; ctr++ {
		in := s
		// Fold the counter into the high bytes so consecutive blocks of a
		// long payload decorrelate.
		binary.LittleEndian.PutUint64(in[8:], binary.LittleEndian.Uint64(in[8:])^ctr)
		convertCipher.Encrypt(block[:], in[:])
		for i := range block {
			block[i] ^= in[i]
		}
		out = append(out, block[:]...)
	}
	return out[:n]
}
