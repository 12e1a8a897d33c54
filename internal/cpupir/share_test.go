package cpupir

import (
	"bytes"
	"testing"

	"github.com/impir/impir/internal/bitvec"
	"github.com/impir/impir/internal/naivepir"
)

func TestQueryShareEndToEnd(t *testing.T) {
	e0, db := newLoaded(t, 256)
	e1, _ := newLoaded(t, 256)

	const idx = 200
	q, err := naivepir.Gen(nil, 256, idx, 2)
	if err != nil {
		t.Fatal(err)
	}
	r0, bd, err := queryShare(e0, q.Shares[0])
	if err != nil {
		t.Fatal(err)
	}
	if bd.TotalModeled() <= 0 {
		t.Error("share query has no modeled cost")
	}
	r1, _, err := queryShare(e1, q.Shares[1])
	if err != nil {
		t.Fatal(err)
	}
	for i := range r0 {
		r0[i] ^= r1[i]
	}
	if !bytes.Equal(r0, db.Record(idx)) {
		t.Fatal("share-query reconstruction failed")
	}
}

func TestQueryShareValidation(t *testing.T) {
	e0, _ := newLoaded(t, 128)
	if _, _, err := queryShare(e0, nil); err == nil {
		t.Error("nil share accepted")
	}
	if _, _, err := queryShare(e0, bitvec.New(64)); err == nil {
		t.Error("mis-sized share accepted")
	}
	empty, err := New(Config{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := queryShare(empty, bitvec.New(64)); err == nil {
		t.Error("share query before load accepted")
	}
}

func TestUpdateRecordsDirect(t *testing.T) {
	e0, _ := newLoaded(t, 128)
	rec := bytes.Repeat([]byte{0x11}, 32)
	if err := e0.ApplyUpdates(map[uint64][]byte{5: rec}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(e0.Database().Record(5), rec) {
		t.Fatal("update not applied")
	}
	if err := e0.ApplyUpdates(nil); err == nil {
		t.Error("empty update accepted")
	}
	if err := e0.ApplyUpdates(map[uint64][]byte{^uint64(0): rec}); err == nil {
		t.Error("out-of-range index accepted")
	}
	if err := e0.ApplyUpdates(map[uint64][]byte{0: rec[:4]}); err == nil {
		t.Error("short record accepted")
	}
	unloaded, _ := New(Config{Threads: 1})
	if err := unloaded.ApplyUpdates(map[uint64][]byte{0: rec}); err == nil {
		t.Error("update before load accepted")
	}
}
