// Package aesprf provides the AES-128-based pseudorandom generator used to
// expand GGM tree nodes during DPF evaluation.
//
// FixedKeyPRG is the standard fixed-key construction used by production
// DPF implementations: two AES permutations with fixed public keys are
// applied in Matyas–Meyer–Oseas mode (G(s) = AES_K0(s)⊕s ‖ AES_K1(s)⊕s),
// avoiding a per-node AES key schedule.
//
// It exposes a batch API. On amd64, Go's crypto/aes lowers to the AES-NI
// instruction set, and issuing many independent blocks back-to-back lets
// the hardware pipeline overlap rounds — the same batching optimisation
// IM-PIR applies across GGM nodes at each subtree level. The MMO
// feed-forward XOR works on a block as two little-endian 64-bit words,
// the form in which package dpf splits and corrects each child.
package aesprf

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"fmt"
)

// BlockSize is the AES block and seed size in bytes (λ = 128 bits).
const BlockSize = 16

// Block is a 128-bit seed or ciphertext.
type Block [BlockSize]byte

// Fixed public keys for the MMO construction. Any fixed values work; these
// are the digits of π and e, a customary nothing-up-my-sleeve choice.
var (
	fixedKeyLeft = [BlockSize]byte{
		0x31, 0x41, 0x59, 0x26, 0x53, 0x58, 0x97, 0x93,
		0x23, 0x84, 0x62, 0x64, 0x33, 0x83, 0x27, 0x95,
	}
	fixedKeyRight = [BlockSize]byte{
		0x27, 0x18, 0x28, 0x18, 0x28, 0x45, 0x90, 0x45,
		0x23, 0x53, 0x60, 0x28, 0x74, 0x71, 0x35, 0x26,
	}
)

// FixedKeyPRG is the fixed-key MMO length-doubling PRG. It is
// deterministic and safe for concurrent use.
type FixedKeyPRG struct {
	left  cipher.Block
	right cipher.Block
}

// NewFixedKey returns a PRG with the package's standard fixed keys.
func NewFixedKey() *FixedKeyPRG {
	l, errL := aes.NewCipher(fixedKeyLeft[:])
	r, errR := aes.NewCipher(fixedKeyRight[:])
	if errL != nil || errR != nil {
		// Unreachable: the standard keys are valid AES-128 keys.
		panic(fmt.Sprintf("aesprf: standard keys rejected: %v, %v", errL, errR))
	}
	return &FixedKeyPRG{left: l, right: r}
}

// Expand computes the two children of a single seed.
func (g *FixedKeyPRG) Expand(seed Block) (left, right Block) {
	g.left.Encrypt(left[:], seed[:])
	g.right.Encrypt(right[:], seed[:])
	xorInto(&left, &seed)
	xorInto(&right, &seed)
	return left, right
}

// ExpandBatch expands seeds[i] into left[i], right[i] for all i; the
// three slices must have equal length. The loop body issues two independent
// AES block operations per seed with no data dependencies between
// iterations, which keeps the AES-NI pipeline full.
func (g *FixedKeyPRG) ExpandBatch(seeds, left, right []Block) {
	checkBatch(len(seeds), len(left), len(right))
	for i := range seeds {
		g.left.Encrypt(left[i][:], seeds[i][:])
		g.right.Encrypt(right[i][:], seeds[i][:])
	}
	for i := range seeds {
		xorInto(&left[i], &seeds[i])
		xorInto(&right[i], &seeds[i])
	}
}

func checkBatch(nSeeds, nLeft, nRight int) {
	if nSeeds != nLeft || nSeeds != nRight {
		panic(fmt.Sprintf("aesprf: batch length mismatch seeds=%d left=%d right=%d",
			nSeeds, nLeft, nRight))
	}
}

// xorInto sets dst ⊕= src as two 64-bit word XORs.
func xorInto(dst, src *Block) {
	le := binary.LittleEndian
	le.PutUint64(dst[:8], le.Uint64(dst[:8])^le.Uint64(src[:8]))
	le.PutUint64(dst[8:], le.Uint64(dst[8:])^le.Uint64(src[8:]))
}
