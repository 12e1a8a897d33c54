// Package bitvec implements densely packed bit vectors.
//
// Bit vectors are the central exchange format in IM-PIR: the full-domain
// evaluation of a DPF key over an N-record database produces an N-bit share
// vector, which the server-side dpXOR stage consumes as a per-record
// selector. The representation is little-endian within each 64-bit word
// (bit i lives in word i/64 at position i%64), which lets the XOR kernels
// consume 64 selectors with a single word load.
package bitvec

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Vector is a packed vector of bits with a fixed length.
//
// The zero value is an empty vector of length 0. Vectors are not safe for
// concurrent mutation; concurrent reads are safe.
type Vector struct {
	words []uint64
	n     int
}

// New returns a zeroed vector with n bits.
func New(n int) *Vector {
	if n < 0 {
		panic("bitvec: negative length")
	}
	return &Vector{
		words: make([]uint64, (n+63)/64),
		n:     n,
	}
}

// FromBools builds a vector from a slice of booleans.
func FromBools(bs []bool) *Vector {
	v := New(len(bs))
	for i, b := range bs {
		if b {
			v.Set(i)
		}
	}
	return v
}

// Len returns the number of bits in the vector.
func (v *Vector) Len() int { return v.n }

// Words exposes the backing words. The final word's unused high bits are
// always zero. Callers must not resize the returned slice; mutating bits
// through it is allowed and is how the evaluation kernels fill vectors.
func (v *Vector) Words() []uint64 { return v.words }

// Set sets bit i to 1.
func (v *Vector) Set(i int) {
	v.boundsCheck(i)
	v.words[i>>6] |= 1 << (uint(i) & 63)
}

// Clear sets bit i to 0.
func (v *Vector) Clear(i int) {
	v.boundsCheck(i)
	v.words[i>>6] &^= 1 << (uint(i) & 63)
}

// SetTo sets bit i to the given value.
func (v *Vector) SetTo(i int, bit bool) {
	if bit {
		v.Set(i)
	} else {
		v.Clear(i)
	}
}

// Bit reports whether bit i is set.
func (v *Vector) Bit(i int) bool {
	v.boundsCheck(i)
	return v.words[i>>6]>>(uint(i)&63)&1 == 1
}

// OnesCount returns the number of set bits.
func (v *Vector) OnesCount() int {
	total := 0
	for _, w := range v.words {
		total += bits.OnesCount64(w)
	}
	return total
}

// Xor sets v = v ⊕ other. Both vectors must have the same length.
func (v *Vector) Xor(other *Vector) {
	if v.n != other.n {
		panic(fmt.Sprintf("bitvec: xor length mismatch %d != %d", v.n, other.n))
	}
	for i, w := range other.words {
		v.words[i] ^= w
	}
}

// Equal reports whether v and other contain the same bits.
func (v *Vector) Equal(other *Vector) bool {
	if v.n != other.n {
		return false
	}
	for i, w := range v.words {
		if w != other.words[i] {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of v.
func (v *Vector) Clone() *Vector {
	out := &Vector{
		words: make([]uint64, len(v.words)),
		n:     v.n,
	}
	copy(out.words, v.words)
	return out
}

// Slice returns a new vector containing bits [lo, hi).
func (v *Vector) Slice(lo, hi int) *Vector {
	if lo < 0 || hi > v.n || lo > hi {
		panic(fmt.Sprintf("bitvec: slice [%d,%d) out of range for length %d", lo, hi, v.n))
	}
	out := New(hi - lo)
	// Fast path: word-aligned lower bound.
	if lo&63 == 0 {
		src := v.words[lo>>6:]
		copy(out.words, src)
		out.maskTail()
		return out
	}
	for i := lo; i < hi; i++ {
		if v.Bit(i) {
			out.Set(i - lo)
		}
	}
	return out
}

// TrailingWordMask zeroes the unused high bits of the last word. Kernels
// writing whole words into the backing slice must call this to restore the
// invariant that unused bits are zero.
func (v *Vector) TrailingWordMask() {
	v.maskTail()
}

func (v *Vector) maskTail() {
	if rem := uint(v.n) & 63; rem != 0 && len(v.words) > 0 {
		v.words[len(v.words)-1] &= (1 << rem) - 1
	}
}

// MarshalBinary encodes the vector as an 8-byte little-endian length
// followed by the packed words.
func (v *Vector) MarshalBinary() ([]byte, error) {
	return v.AppendBinary(make([]byte, 0, 8+8*len(v.words)))
}

// AppendBinary appends the MarshalBinary encoding of the vector to dst,
// so a share can be encoded straight into the frame that carries it.
func (v *Vector) AppendBinary(dst []byte) ([]byte, error) {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(v.n))
	for _, w := range v.words {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst, nil
}

// UnmarshalBinary decodes a vector produced by MarshalBinary.
func (v *Vector) UnmarshalBinary(data []byte) error {
	if len(data) < 8 {
		return fmt.Errorf("bitvec: short buffer (%d bytes)", len(data))
	}
	n := binary.LittleEndian.Uint64(data)
	if n > uint64(1)<<48 {
		return fmt.Errorf("bitvec: implausible length %d", n)
	}
	nWords := (int(n) + 63) / 64
	if len(data) != 8+8*nWords {
		return fmt.Errorf("bitvec: want %d payload bytes, have %d", 8*nWords, len(data)-8)
	}
	v.n = int(n)
	v.words = make([]uint64, nWords)
	for i := range v.words {
		v.words[i] = binary.LittleEndian.Uint64(data[8+8*i:])
	}
	v.maskTail()
	return nil
}

// String renders the vector as a 0/1 string, lowest index first. Intended
// for tests and debugging of small vectors.
func (v *Vector) String() string {
	buf := make([]byte, v.n)
	for i := 0; i < v.n; i++ {
		if v.Bit(i) {
			buf[i] = '1'
		} else {
			buf[i] = '0'
		}
	}
	return string(buf)
}

func (v *Vector) boundsCheck(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: index %d out of range for length %d", i, v.n))
	}
}
