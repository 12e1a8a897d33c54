package dpf

import (
	"encoding/binary"
	"fmt"

	"github.com/impir/impir/internal/aesprf"
)

// Wire format (all integers little-endian):
//
//	offset size  field
//	0      1     version (currently 1)
//	1      1     party
//	2      1     domain
//	3      1     PRG id (always 1: fixed-key AES, see package aesprf)
//	4      4     betaLen (uint32)
//	8      16    root seed
//	24     1     root control bit
//	25     17·d  correction words: 16-byte seed + 1 packed-bit byte
//	...    β     output correction word
const (
	keyVersion    = 1
	keyPRGID      = 1
	keyHeaderSize = 25
	cwWireSize    = aesprf.BlockSize + 1
)

// MarshalBinary encodes the key. The encoding is deterministic and
// versioned; it is the format sent to PIR servers over the wire.
func (k *Key) MarshalBinary() ([]byte, error) {
	if len(k.CW) != int(k.Domain) {
		return nil, fmt.Errorf("dpf: marshal: %d correction words for domain %d", len(k.CW), k.Domain)
	}
	out := make([]byte, keyHeaderSize+cwWireSize*len(k.CW)+len(k.OutputCW))
	out[0] = keyVersion
	out[1] = k.Party
	out[2] = k.Domain
	out[3] = keyPRGID
	binary.LittleEndian.PutUint32(out[4:], uint32(len(k.OutputCW)))
	copy(out[8:], k.RootSeed[:])
	if k.RootT {
		out[24] = 1
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
	copy(out[off:], k.OutputCW)
	return out, nil
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
	betaLen := int(binary.LittleEndian.Uint32(data[4:]))
	want := keyHeaderSize + cwWireSize*domain + betaLen
	if len(data) != want {
		return fmt.Errorf("dpf: unmarshal: have %d bytes, want %d (domain=%d betaLen=%d)",
			len(data), want, domain, betaLen)
	}
	if data[24] > 1 {
		return fmt.Errorf("dpf: unmarshal: invalid control bit %d", data[24])
	}

	k.Party = party
	k.Domain = uint8(domain)
	copy(k.RootSeed[:], data[8:24])
	k.RootT = data[24] == 1
	k.CW = make([]CorrectionWord, domain)
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
	if betaLen > 0 {
		k.OutputCW = append([]byte(nil), data[off:off+betaLen]...)
	} else {
		k.OutputCW = nil
	}
	return nil
}

// WireSize returns the marshalled size of the key in bytes without
// allocating: O(λ·log N), the communication cost per server of one query.
func (k *Key) WireSize() int {
	return keyHeaderSize + cwWireSize*len(k.CW) + len(k.OutputCW)
}
