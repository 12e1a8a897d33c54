package dpf

import (
	"testing"
)

// FuzzUnmarshalKey hardens the wire decoder: arbitrary bytes must either
// be rejected or produce a key that round-trips and evaluates without
// panicking — servers feed attacker-controlled bytes into this path.
func FuzzUnmarshalKey(f *testing.F) {
	k0, _, err := Gen(Params{Domain: 10}, 13, nil)
	if err != nil {
		f.Fatal(err)
	}
	seed, err := k0.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{keyVersion, 0, 10, keyPRGID})
	mutated := append([]byte(nil), seed...)
	mutated[2] = 60 // larger domain than the payload supports
	f.Add(mutated)

	f.Fuzz(func(t *testing.T, data []byte) {
		var k Key
		if err := k.UnmarshalBinary(data); err != nil {
			return // rejection is fine; panics are not
		}
		// Accepted keys must be internally consistent…
		if err := k.checkShape(); err != nil {
			t.Fatalf("accepted key: %v", err)
		}
		// …evaluable…
		if _, err := k.Eval(0); err != nil {
			t.Fatalf("accepted key fails Eval: %v", err)
		}
		// …and re-encodable to the identical bytes.
		back, err := k.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted key fails re-marshal: %v", err)
		}
		if string(back) != string(data) {
			t.Fatal("accepted key is not a fixed point of the codec")
		}
	})
}
