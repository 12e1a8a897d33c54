package dpf

import (
	"fmt"

	"github.com/impir/impir/internal/aesprf"
)

// Wire format, version 2 (d = max(domain − 7, 0) tree levels):
//
//	offset    size  field
//	0         1     version (currently 2)
//	1         1     party
//	2         1     domain
//	3         1     PRG id (always 1: fixed-key AES, see package aesprf)
//	4         16    root seed
//	20        1     root control bit
//	21        17·d  correction words: 16-byte seed + 1 packed-bit byte
//	21+17·d   16    leaf correction word (128 selector bits)
//
// Version 1 keys (a 4-byte payload length in the header, one correction
// word per index bit and no leaf word) are rejected as unsupported.
const (
	keyVersion    = 2
	keyPRGID      = 1
	keyHeaderSize = 21
	cwWireSize    = aesprf.BlockSize + 1
)

// MarshalBinary encodes the key. The encoding is deterministic and
// versioned; it is the format sent to PIR servers over the wire.
func (k *Key) MarshalBinary() ([]byte, error) {
	out, err := k.AppendBinary(make([]byte, 0, k.WireSize()))
	if err != nil {
		return nil, err
	}
	return out, nil
}

// AppendBinary appends the MarshalBinary encoding of the key to dst, so
// a key can be encoded straight into the frame that carries it.
func (k *Key) AppendBinary(dst []byte) ([]byte, error) {
	if err := k.checkShape(); err != nil {
		return dst, err
	}
	start := len(dst)
	dst = append(dst, make([]byte, k.WireSize())...)
	out := dst[start:]
	out[0] = keyVersion
	out[1] = k.Party
	out[2] = k.Domain
	out[3] = keyPRGID
	copy(out[4:], k.RootSeed[:])
	if k.RootT {
		out[20] = 1
	}
	off := keyHeaderSize
	for _, cw := range k.CW {
		copy(out[off:], cw.Seed[:])
		var bits byte
		if cw.TLeft {
			bits |= 1
		}
		if cw.TRight {
			bits |= 2
		}
		out[off+aesprf.BlockSize] = bits
		off += cwWireSize
	}
	copy(out[off:], k.LeafCW[:])
	return dst, nil
}

// UnmarshalBinary decodes a key produced by MarshalBinary, validating all
// structural invariants (lengths, version, party, PRG id).
func (k *Key) UnmarshalBinary(data []byte) error {
	if len(data) < keyHeaderSize {
		return fmt.Errorf("dpf: unmarshal: short buffer (%d bytes)", len(data))
	}
	if data[0] != keyVersion {
		return fmt.Errorf("dpf: unmarshal: unsupported version %d", data[0])
	}
	party := data[1]
	if party > 1 {
		return fmt.Errorf("dpf: unmarshal: invalid party %d", party)
	}
	domain := int(data[2])
	if domain > MaxDomain {
		return fmt.Errorf("%w: %d", ErrDomainRange, domain)
	}
	if data[3] != keyPRGID {
		return fmt.Errorf("dpf: unmarshal: unsupported PRG id %d", data[3])
	}
	if want := KeyWireSize(domain); len(data) != want {
		return fmt.Errorf("dpf: unmarshal: have %d bytes, want %d (domain=%d)", len(data), want, domain)
	}
	if data[20] > 1 {
		return fmt.Errorf("dpf: unmarshal: invalid control bit %d", data[20])
	}

	k.Party = party
	k.Domain = uint8(domain)
	copy(k.RootSeed[:], data[4:20])
	k.RootT = data[20] == 1
	k.CW = make([]CorrectionWord, treeDepth(domain))
	off := keyHeaderSize
	for i := range k.CW {
		copy(k.CW[i].Seed[:], data[off:off+aesprf.BlockSize])
		bits := data[off+aesprf.BlockSize]
		if bits > 3 {
			return fmt.Errorf("dpf: unmarshal: invalid correction bits %#x at level %d", bits, i)
		}
		k.CW[i].TLeft = bits&1 == 1
		k.CW[i].TRight = bits&2 == 2
		off += cwWireSize
	}
	copy(k.LeafCW[:], data[off:])
	return nil
}

// WireSize returns the marshalled size of the key in bytes without
// allocating: O(λ·log N), the communication cost per server of one query.
func (k *Key) WireSize() int { return KeyWireSize(int(k.Domain)) }

// KeyWireSize is the marshalled size in bytes of a key over 2^domain
// indices: the header, one correction word per tree level and the leaf
// word.
func KeyWireSize(domain int) int {
	return keyHeaderSize + cwWireSize*treeDepth(domain) + aesprf.BlockSize
}
