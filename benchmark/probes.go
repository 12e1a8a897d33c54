package main

import (
	"bytes"
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"time"

	"github.com/impir/impir"
	"github.com/impir/impir/internal/dpf"
	"github.com/impir/impir/internal/pirproto"
	"github.com/impir/impir/internal/xorop"
)

// Standalone probes call one layer's kernel directly, on the workload's
// own geometry, so each layer has a number that contains nothing but
// that layer. They supply the kernel rows of the ladder.

// timeCalls returns fn's cost per call in nanoseconds: the median of
// five equal stretches that together spend about budget.
func timeCalls(budget time.Duration, fn func() error) (float64, error) {
	const stretches = 5
	start := time.Now()
	if err := fn(); err != nil {
		return 0, err
	}
	once := max(time.Since(start), time.Nanosecond)
	n := max(int(budget/stretches/once), 1)
	per := make([]float64, stretches)
	for s := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		per[s] = float64(time.Since(t0)) / float64(n)
	}
	return median(per), nil
}

// allocsPerCall returns fn's heap allocations per call.
func allocsPerCall(fn func() error) (float64, error) {
	const n = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / n, nil
}

// runProbes fills m with the kernel metrics, spending about budget.
func (d *deployment) runProbes(ctx context.Context, seed uint64, budget time.Duration, m map[string]float64) error {
	r := newRNG(seed, streamProbe)
	db := d.probeDB.PadToPowerOfTwo() // the replica a server scans
	n, recordSize := db.NumRecords(), db.RecordSize()
	slice := budget / 8

	// The first failing probe ends the run; later probes still execute
	// but their numbers are discarded with it.
	var failed error
	ns := func(fn func() error) float64 {
		v, err := timeCalls(slice, fn)
		if failed == nil {
			failed = err
		}
		return v
	}

	// dpf: key generation and single-threaded full-domain evaluation,
	// the strategy and width the CPU engine uses per query.
	params := dpf.Params{Domain: db.Domain()}
	m["dpf.gen_us"] = ns(func() error {
		_, _, err := dpf.Gen(params, uint64(r.intn(n)), nil)
		return err
	}) / 1e3
	evalOpts := dpf.FullEvalOptions{Strategy: dpf.StrategyMemoryBounded, Workers: 1}
	keys := make([]*dpf.Key, 8)
	sels := make([][]uint64, len(keys))
	items := make([][]byte, len(keys))
	for i := range keys {
		k0, _, err := dpf.Gen(params, uint64(r.intn(n)), nil)
		if err != nil {
			return err
		}
		vec, err := k0.EvalFull(evalOpts)
		if err != nil {
			return err
		}
		if items[i], err = k0.MarshalBinary(); err != nil {
			return err
		}
		keys[i], sels[i] = k0, vec.Words()
	}
	m["dpf.evalfull_ns_per_leaf"] = ns(func() error {
		_, err := keys[0].EvalFull(evalOpts)
		return err
	}) / float64(n)
	m["dpf.key_wire_bytes"] = float64(keys[0].WireSize())

	// xorop: the dpXOR scan, solo and fused over 8 selectors; GB/s is
	// database bytes streamed per nanosecond.
	data := db.Data()
	acc := make([]byte, recordSize)
	m["xorop.scan_gbps"] = float64(len(data)) / ns(func() error {
		return xorop.Accumulate(acc, data, recordSize, sels[0])
	})
	accs := make([][]byte, len(sels))
	for i := range accs {
		accs[i] = make([]byte, recordSize)
	}
	m["xorop.batch8_gbps"] = float64(len(data)) / ns(func() error {
		return xorop.AccumulateBatchWorkers(accs, data, recordSize, sels, runtime.NumCPU())
	})
	setBits := 0
	for _, w := range sels[0] {
		setBits += bits.OnesCount64(w)
	}
	_, touched := xorop.CountOps(recordSize, setBits, n)
	m["xorop.bytes_per_op"] = float64(touched) // computed from the selector, not measured

	// pirproto: framing and the two codecs a query crosses.
	var buf bytes.Buffer
	frame := func() error {
		buf.Reset()
		if err := pirproto.WriteFrame(&buf, pirproto.MsgQuery, items[0]); err != nil {
			return err
		}
		_, _, err := pirproto.ReadFrame(&buf)
		return err
	}
	m["pirproto.frame_ns"] = ns(frame)
	allocs, err := allocsPerCall(frame)
	if err != nil {
		return err
	}
	m["pirproto.allocs_per_frame"] = allocs
	m["pirproto.key_codec_ns"] = ns(func() error {
		b, err := keys[0].MarshalBinary()
		if err != nil {
			return err
		}
		return new(dpf.Key).UnmarshalBinary(b)
	})
	m["pirproto.batch_codec_ns"] = ns(func() error {
		b, err := pirproto.MarshalBatch(items)
		if err != nil {
			return err
		}
		_, err = pirproto.ParseBatch(b)
		return err
	})

	// gpupir: no workload serves from the third engine yet; one probe
	// server over the scan_large database keeps "one engine pass"
	// measured for it.
	if failed == nil && d.w.name == "scan_large" {
		failed = d.probeGPU(ctx, slice, r, m)
	}
	return failed
}

func (d *deployment) probeGPU(ctx context.Context, budget time.Duration, r *rng, m map[string]float64) error {
	srv, err := impir.NewServer(impir.ServerConfig{Engine: impir.EngineGPU})
	if err != nil {
		return err
	}
	defer srv.Close()
	if err := srv.Load(d.db); err != nil {
		return err
	}
	k0, _, err := impir.GenerateKeys(d.db.NumRecords(), uint64(r.intn(d.db.NumRecords())))
	if err != nil {
		return err
	}
	var modeled time.Duration
	wall, err := timeCalls(budget, func() error {
		_, bd, err := srv.Answer(ctx, k0)
		modeled = bd.TotalModeled()
		return err
	})
	if err != nil {
		return fmt.Errorf("gpupir probe: %w", err)
	}
	m["gpupir.answer_us"] = wall / 1e3
	m["gpupir.modeled_us"] = float64(modeled) / 1e3
	return nil
}
