// Package dpf implements distributed point functions (DPFs) for two-party
// multi-server PIR, following the tree-based construction of Gilboa–Ishai
// (EUROCRYPT'14) with the correction-word and early-termination
// optimisations of Boyle–Gilboa–Ishai (CCS'16) as used by IM-PIR (§3.1–3.2
// of the paper).
//
// A DPF secret-shares the point function P_α — the function that is 1 at
// index α and 0 elsewhere — into two keys k₀ and k₁ such that neither key
// alone reveals α, yet for every x:
//
//	Eval(k₀, x) ⊕ Eval(k₁, x) = P_α(x)
//
// For PIR the client generates a key pair for α, sends one key to each
// server, and each server's full-domain evaluation yields an N-bit share
// vector whose XOR is the one-hot query vector.
//
// Evaluation expands a GGM tree: every node holds a 128-bit seed and a
// control bit, and children are derived with an AES-based length-doubling
// PRG (see package aesprf). The control bits of the two parties differ
// exactly on the root-to-α path. The tree stops ν = 7 levels above the
// leaves: each terminal node covers 128 consecutive indices, and its seed s
// is converted into 128 selector bits with one fixed-key AES call,
// Conv(s) = AES_Kc(s) ⊕ s. A party outputs Conv(s) ⊕ t·LeafCW. Off the α
// path both parties hold the same (s, t), so their blocks cancel; on it
// t₀ ⊕ t₁ = 1 and the blocks XOR to the unit vector e_{α mod 128}. A full
// evaluation therefore costs ≈ 3N/128 AES calls instead of 2N.
//
// A key is a root seed and control bit, max(log₂N − 7, 0) correction words
// (one per tree level) and one 128-bit leaf correction word, so keys are
// O(λ·log N) bits rather than O(N).
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

// MaxDomain is the largest supported domain (log₂ of the index space).
const MaxDomain = 62

// leafLevels is ν, the number of tree levels replaced by the leaf
// conversion: one terminal seed yields 1<<leafLevels selector bits.
const (
	leafLevels = 7
	leafBits   = 1 << leafLevels
)

// treeDepth is the depth of the GGM tree for a domain: the terminal level
// sits leafLevels above the leaves, or at the root for small domains.
func treeDepth(domain int) int { return max(domain-leafLevels, 0) }

// prg is the fixed-key AES length-doubling PRG every key is expanded with.
var prg = aesprf.NewFixedKey()

// Params configures key generation.
type Params struct {
	// Domain is log₂ of the index space: keys address indices in
	// [0, 1<<Domain). Must be in [0, MaxDomain].
	Domain int
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
	CW       []CorrectionWord // one per tree level: max(Domain−7, 0)
	LeafCW   aesprf.Block     // Conv(s₀) ⊕ Conv(s₁) ⊕ e_{α mod 128}
}

// NumIndices returns the size of the key's index space, 1<<Domain.
func (k *Key) NumIndices() uint64 { return 1 << k.Domain }

var (
	// ErrDomainRange indicates a Domain outside [0, MaxDomain].
	ErrDomainRange = errors.New("dpf: domain out of range")
	// ErrAlphaRange indicates α ≥ 2^Domain.
	ErrAlphaRange = errors.New("dpf: alpha outside index space")
	// ErrBetaLen indicates a payload β was supplied: keys share the
	// single-bit point function (β = 1) only.
	ErrBetaLen = errors.New("dpf: beta length mismatch")
)

// Gen produces a key pair for the point function P_α: the XOR of the two
// parties' evaluation bits is 1 exactly at α. beta must be nil.
func Gen(p Params, alpha uint64, beta []byte) (k0, k1 *Key, err error) {
	if p.Domain < 0 || p.Domain > MaxDomain {
		return nil, nil, fmt.Errorf("%w: %d", ErrDomainRange, p.Domain)
	}
	if alpha >= 1<<uint(p.Domain) {
		return nil, nil, fmt.Errorf("%w: alpha=%d domain=%d", ErrAlphaRange, alpha, p.Domain)
	}
	if beta != nil {
		return nil, nil, fmt.Errorf("%w: have %d bytes, keys carry no payload", ErrBetaLen, len(beta))
	}
	rng := p.Rand
	if rng == nil {
		rng = rand.Reader
	}

	// One scratch for the whole call: seeds holds the two parties' nodes
	// on the root-to-α path, left and right their children. A block
	// handed to a cipher.Block escapes, so per-node locals would each be
	// a heap allocation.
	scratch := make([]aesprf.Block, 6)
	seeds, left, right := scratch[0:2], scratch[2:4], scratch[4:6]
	for i := range seeds {
		if _, err := io.ReadFull(rng, seeds[i][:]); err != nil {
			return nil, nil, fmt.Errorf("dpf: read root seed: %w", err)
		}
	}

	depth := treeDepth(p.Domain)
	k0 = &Key{Party: 0, Domain: uint8(p.Domain), RootSeed: seeds[0], RootT: false}
	k1 = &Key{Party: 1, Domain: uint8(p.Domain), RootSeed: seeds[1], RootT: true}
	k0.CW = make([]CorrectionWord, depth)
	k1.CW = make([]CorrectionWord, depth)

	// n0 and n1 are the two parties' nodes on the root-to-α path.
	n0, n1 := node{seeds[0], 0}, node{seeds[1], ^uint64(0)}
	for level := 0; level < depth; level++ {
		seeds[0], seeds[1] = n0.seed, n1.seed
		prg.ExpandBatch(seeds, left, right)

		// α's bit at this level, MSB first.
		aBit := alpha>>(uint(p.Domain)-1-uint(level))&1 == 1

		lose := right
		if aBit {
			lose = left
		}
		// A child's control bit is the low bit of its PRG half, which its
		// seed drops.
		seed := xorBlocks(lose[0], lose[1])
		seed[0] &^= 1
		cw := CorrectionWord{
			Seed:   seed,
			TLeft:  (left[0][0]^left[1][0])&1 == 1 != !aBit,
			TRight: (right[0][0]^right[1][0])&1 == 1 != aBit,
		}
		// Note: x != y on bools is XOR; the chained form above associates
		// left-to-right, computing (t0L ⊕ t1L) ⊕ (aBit ⊕ 1) for TLeft and
		// (t0R ⊕ t1R) ⊕ aBit for TRight, per the BGI correction rule.
		k0.CW[level] = cw
		k1.CW[level] = cw

		c := k0.levelCW(level)
		l0, r0 := c.children(&left[0], &right[0], n0.t)
		l1, r1 := c.children(&left[1], &right[1], n1.t)
		n0, n1 = l0, l1
		if aBit {
			n0, n1 = r0, r1
		}
	}

	// Conv of both terminal seeds, through the same scratch.
	seeds[0], seeds[1] = n0.seed, n1.seed
	for i := range seeds {
		convertCipher.Encrypt(left[i][:], seeds[i][:])
	}
	leafCW := xorBlocks(xorBlocks(left[0], seeds[0]), xorBlocks(left[1], seeds[1]))
	j := alpha % leafBits
	leafCW[j/8] ^= 1 << (j % 8)
	k0.LeafCW = leafCW
	k1.LeafCW = leafCW
	return k0, k1, nil
}

// Eval returns this party's bit share of P_α(x). The XOR of the two
// parties' shares is 1 exactly at x == α.
func (k *Key) Eval(x uint64) (bool, error) {
	if x >= 1<<uint(k.Domain) {
		return false, fmt.Errorf("%w: x=%d domain=%d", ErrAlphaRange, x, k.Domain)
	}
	if err := k.checkShape(); err != nil {
		return false, err
	}
	nd := node{k.RootSeed, bitMask(k.RootT)}
	for level := range k.CW {
		l, r := prg.Expand(nd.seed)
		c := k.levelCW(level)
		half, cwT := &l, c.tL
		if x>>(uint(k.Domain)-1-uint(level))&1 == 1 {
			half, cwT = &r, c.tR
		}
		nd.t = c.child(&nd.seed, half, cwT, nd.t)
	}
	lo, hi := k.leafWords(nd)
	j := x % leafBits
	if j >= 64 {
		lo = hi
	}
	return lo>>(j%64)&1 == 1, nil
}

// checkShape rejects keys whose correction-word count does not match
// their domain.
func (k *Key) checkShape() error {
	if len(k.CW) != treeDepth(int(k.Domain)) {
		return fmt.Errorf("dpf: malformed key: %d correction words for domain %d", len(k.CW), k.Domain)
	}
	return nil
}

// node is a (seed, control-bit) pair at some tree depth. The control bit
// is held as a mask, all ones when set and zero when clear, so applying
// a correction under it is an AND rather than a branch.
type node struct {
	seed aesprf.Block
	t    uint64
}

// bitMask is the control mask of a control bit.
func bitMask(b bool) uint64 {
	if b {
		return ^uint64(0)
	}
	return 0
}

// levelCW is one level's correction word in the form the per-node step
// applies it: the seed as two words, TLeft and TRight as masks.
type levelCW struct{ lo, hi, tL, tR uint64 }

func (k *Key) levelCW(level int) levelCW {
	cw := &k.CW[level]
	lo, hi := blockWords(&cw.Seed)
	return levelCW{lo, hi, bitMask(cw.TLeft), bitMask(cw.TRight)}
}

// child writes to dst the corrected child that the uncorrected PRG half
// s of a node with control mask t yields, and returns the child's
// control mask. The child's control bit is the low bit of s, which its
// seed drops; under t the level's seed correction and cwT (c.tL for a
// left child, c.tR for a right one) are XORed in. dst may be s.
func (c *levelCW) child(dst, s *aesprf.Block, cwT, t uint64) uint64 {
	lo, hi := blockWords(s)
	putWords(dst, lo&^1^c.lo&t, hi^c.hi&t)
	return -(lo & 1) ^ cwT&t
}

// children corrects in place the uncorrected PRG halves l and r of a
// node with control mask t and returns the two children.
func (c *levelCW) children(l, r *aesprf.Block, t uint64) (node, node) {
	tl := c.child(l, l, c.tL, t)
	tr := c.child(r, r, c.tR, t)
	return node{*l, tl}, node{*r, tr}
}

// leafWords is a terminal node's 128 selector bits, Conv(s) ⊕ t·LeafCW,
// as two words in bitvec order.
func (k *Key) leafWords(nd node) (lo, hi uint64) {
	var c aesprf.Block
	convertCipher.Encrypt(c[:], nd.seed[:])
	lo, hi = blockWords(&c)
	sLo, sHi := blockWords(&nd.seed)
	cwLo, cwHi := blockWords(&k.LeafCW)
	return lo ^ sLo ^ cwLo&nd.t, hi ^ sHi ^ cwHi&nd.t
}

// xorBlocks returns a ⊕ b, computed as two word XORs.
func xorBlocks(a, b aesprf.Block) aesprf.Block {
	aLo, aHi := blockWords(&a)
	bLo, bHi := blockWords(&b)
	putWords(&a, aLo^bLo, aHi^bHi)
	return a
}

// convertCipher is a third fixed-key AES permutation, independent of the
// two PRG keys, that maps terminal seeds to selector blocks so the blocks
// never expose raw tree seeds.
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

// blockWords splits a block into the two little-endian words that hold its
// bits in bitvec order.
func blockWords(b *aesprf.Block) (lo, hi uint64) {
	return binary.LittleEndian.Uint64(b[:8]), binary.LittleEndian.Uint64(b[8:])
}

// putWords stores two words into a block, the inverse of blockWords.
func putWords(b *aesprf.Block, lo, hi uint64) {
	binary.LittleEndian.PutUint64(b[:8], lo)
	binary.LittleEndian.PutUint64(b[8:], hi)
}
