package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"github.com/impir/impir"
	"github.com/impir/impir/internal/keyword"
)

// workload is one fixed set of inputs. Every field is a constant of the
// benchmark: run length, rates and geometry are not flags, so two
// commits are always measured on identical inputs.
type workload struct {
	name string
	why  string // one line, mirrored in BENCHMARK.json

	engine     impir.EngineKind
	dpus       int // PIM engine only
	records    int // index workloads: database rows
	recordSize int
	batch      int     // > 0: one op is a RetrieveBatch of this many indices
	rate       float64 // > 0: open loop, Poisson arrivals per second through one shared Store
	kvPairs    int     // > 0: sharded coded keyword store, Get/Put mix

	slo      time.Duration // an op answered correctly within slo counts towards slo_share
	deadline time.Duration // per-op timeout; a timed-out op is a failed op
}

const (
	kvShards       = 2
	kvParties      = 2
	kvPutShare     = 0.10
	kvHitShare     = 0.75
	maxInFlight    = 64 // open loop: an arrival beyond this many in flight is lost (= failed)
	measuredRounds = 5
)

var workloads = []workload{
	{
		name: "point_small", engine: impir.EngineCPU, records: 1024, recordSize: 32,
		slo: 2 * time.Millisecond, deadline: time.Second,
		why: "32 KiB DB, serial Retrieve: fixed per-query cost (keygen, codec, transport, scheduler) dominates; kernel changes must stay flat",
	},
	{
		name: "scan_large", engine: impir.EngineCPU, records: 16384, recordSize: 4096, batch: 8,
		slo: 250 * time.Millisecond, deadline: 5 * time.Second,
		why: "64 MiB per server, serial RetrieveBatch of 8 on the CPU engine: the fused dpXOR scan dominates (the paper's regime); transport/scheduler changes must stay flat",
	},
	{
		name: "batch_pim", engine: impir.EnginePIM, dpus: 64, records: 65536, recordSize: 256, batch: 8,
		slo: 400 * time.Millisecond, deadline: 5 * time.Second,
		why: "PIM engine (64 simulated DPUs), 16 MiB, RetrieveBatch of 8: the fused batch pipeline of the default engine; wall time is simulator host time",
	},
	{
		name: "gateway_open", engine: impir.EngineCPU, records: 16384, recordSize: 64, rate: 200,
		slo: 10 * time.Millisecond, deadline: time.Second,
		why: "1 MiB DB, open loop, Poisson 200 ops/s, through one shared Store: DPF eval plus queueing on the one-exchange-at-a-time conn and the scheduler",
	},
	{
		name: "kv_sharded_mixed", engine: impir.EngineCPU, kvPairs: 20000,
		slo: 60 * time.Millisecond, deadline: time.Second,
		why: "2 shards x 2 parties, coded keyword store, 90% Get (75% hits) + 10% Put: the whole client stack with writes beside reads",
	},
}

// smoke shrinks a workload to a ≤ 256-record database for the package
// test; shape and code paths are unchanged.
func (w workload) smoke() workload {
	if w.records > 256 {
		w.records = 256
	}
	if w.kvPairs > 200 {
		w.kvPairs = 200
	}
	if w.dpus > 8 {
		w.dpus = 8
	}
	return w
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// setupTimes splits set-up by layer; total runs from the first generated
// byte to the first verified op.
type setupTimes struct {
	total, build, encode, split, load, open time.Duration
}

// deployment is one workload stood up in-process: real impir.Servers on
// 127.0.0.1:0 behind counting listeners, a client opened through the
// public Store API, and the benchmark's own copy of the data every
// answer is checked against.
type deployment struct {
	w       workload
	servers [][]*impir.Server // [shard][party]
	wire    *wireBytes        // summed over every listener
	store   impir.Store
	kv      *impir.KVClient
	times   setupTimes
	opts    []impir.CallOption

	// index workloads: the benchmark's copy of the database.
	db *impir.DB
	// keyword workload: the shadow map, the hit/miss key corpora, and
	// what the ladder needs to replay the client stack by hand.
	shadow  map[string][]byte
	keys    [][]byte
	kvm     impir.KVManifest
	code    impir.CodeManifest
	probeDB *impir.DB // geometry the kernel probes run on (one server's replica)
}

var errMismatch = errors.New("returned bytes differ from the benchmark's copy")

// op is one generated request.
type op struct {
	write   bool
	indices []uint64 // index workloads
	key     []byte   // keyword workload
	value   []byte   // Put only
}

// serve starts one server per party over db and returns their addresses.
func (d *deployment) serve(db *impir.DB, cfg impir.ServerConfig, parties int) ([]string, error) {
	addrs := make([]string, parties)
	cohort := make([]*impir.Server, parties)
	d.servers = append(d.servers, cohort)
	for p := range cohort {
		srv, err := impir.NewServer(cfg)
		if err != nil {
			return nil, err
		}
		cohort[p] = srv
		if err := srv.Load(db); err != nil {
			return nil, err
		}
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		if err := srv.Serve(countingListener{lis, d.wire}, uint8(p)); err != nil {
			lis.Close()
			return nil, err
		}
		addrs[p] = srv.Addr().String()
	}
	return addrs, nil
}

// setup stands the workload up and runs it to its first verified op.
func setup(ctx context.Context, w workload, seed uint64) (*deployment, error) {
	d := &deployment{w: w, wire: &wireBytes{}, opts: []impir.CallOption{impir.WithCallTimeout(w.deadline)}}
	start := time.Now()
	var err error
	if w.kvPairs > 0 {
		err = d.setupKV(ctx, seed)
	} else {
		err = d.setupIndex(ctx, seed)
	}
	if err == nil {
		if err = d.do(ctx, d.next(newRNG(seed, streamFirstOp), false)); err != nil {
			err = fmt.Errorf("first op: %w", err)
		}
	}
	if err != nil {
		d.close()
		return nil, fmt.Errorf("set-up: %w", err)
	}
	d.times.total = time.Since(start)
	return d, nil
}

func (d *deployment) setupIndex(ctx context.Context, seed uint64) error {
	w := d.w
	t0 := time.Now()
	db, err := impir.NewDatabase(w.records, w.recordSize)
	if err != nil {
		return err
	}
	newRNG(seed, streamData).fill(db.Data())
	d.db, d.probeDB = db, db
	d.times.build = time.Since(t0)

	t0 = time.Now()
	addrs, err := d.serve(db, impir.ServerConfig{Engine: w.engine, DPUs: w.dpus}, 2)
	if err != nil {
		return err
	}
	d.times.load = time.Since(t0)

	t0 = time.Now()
	d.store, err = impir.Open(ctx, impir.FlatDeployment(addrs...))
	d.times.open = time.Since(t0)
	return err
}

func (d *deployment) setupKV(ctx context.Context, seed uint64) error {
	w := d.w
	t0 := time.Now()
	pairs := keyword.GeneratePairs(w.kvPairs, int64(seed))
	db, kvm, err := impir.BuildKVDB(pairs, impir.KVTableOptions{Seed: int64(seed)})
	if err != nil {
		return err
	}
	d.kvm = kvm
	d.shadow = make(map[string][]byte, len(pairs))
	d.keys = make([][]byte, len(pairs))
	for i, p := range pairs {
		d.shadow[string(p.Key)] = p.Value
		d.keys[i] = p.Key
	}
	d.times.build = time.Since(t0)

	t0 = time.Now()
	d.code, err = impir.DeriveBatchCode(uint64(db.NumRecords()), db.RecordSize(), 8, 2, 2, 16, seed)
	if err != nil {
		return err
	}
	coded, err := impir.EncodeBatchCode(db, d.code)
	if err != nil {
		return err
	}
	d.times.encode = time.Since(t0)

	t0 = time.Now()
	parts, err := impir.SplitDB(coded, kvShards)
	if err != nil {
		return err
	}
	d.probeDB = parts[0]
	d.times.split = time.Since(t0)

	t0 = time.Now()
	cohorts := make([][]string, kvShards)
	for s, part := range parts {
		cohorts[s], err = d.serve(part, impir.ServerConfig{Engine: w.engine, AllowWireUpdates: true}, kvParties)
		if err != nil {
			return err
		}
	}
	d.times.load = time.Since(t0)

	t0 = time.Now()
	m, err := impir.UniformManifest(uint64(coded.NumRecords()), coded.RecordSize(), cohorts)
	if err != nil {
		return err
	}
	d.kv, err = impir.OpenKV(ctx, impir.DeploymentFromManifest(m).WithKeyword(kvm).WithBatchCode(d.code))
	if err != nil {
		return err
	}
	d.store = d.kv.Store()
	d.times.open = time.Since(t0)
	return nil
}

// close tears the deployment down, also one whose set-up failed part-way.
func (d *deployment) close() {
	if d.store != nil {
		d.store.Close()
	}
	for _, cohort := range d.servers {
		for _, srv := range cohort {
			if srv != nil {
				srv.Close()
			}
		}
	}
}

// next draws one request. readOnly suppresses Puts (the ladder replays
// reads only).
func (d *deployment) next(r *rng, readOnly bool) op {
	if d.kv == nil {
		n := d.w.batch
		if n == 0 {
			n = 1
		}
		o := op{indices: make([]uint64, n)}
		for i := range o.indices {
			o.indices[i] = uint64(r.intn(d.w.records))
		}
		return o
	}
	if !readOnly && r.float() < kvPutShare {
		o := op{write: true, key: d.keys[r.intn(len(d.keys))], value: make([]byte, d.kvm.ValueSize)}
		r.fill(o.value)
		return o
	}
	if r.float() < kvHitShare {
		return op{key: d.keys[r.intn(len(d.keys))]}
	}
	// Absent keys continue the corpus's numbering, so they have the
	// stored keys' length and shape.
	return op{key: []byte(fmt.Sprintf("key-%08d", len(d.keys)+r.intn(1<<20)))}
}

// do issues one request through the public client API and verifies the
// answer against the benchmark's copy. nil means answered and correct.
func (d *deployment) do(ctx context.Context, o op) error {
	switch {
	case o.write:
		if err := d.kv.Put(ctx, o.key, o.value, d.opts...); err != nil {
			return err
		}
		d.shadow[string(o.key)] = o.value
		return nil
	case o.key != nil:
		val, err := d.kv.Get(ctx, o.key, d.opts...)
		return d.checkValue(o.key, val, err)
	case d.w.batch > 0:
		recs, err := d.store.RetrieveBatch(ctx, o.indices, d.opts...)
		if err != nil {
			return err
		}
		return d.checkRecords(o.indices, recs)
	default:
		rec, err := d.store.Retrieve(ctx, o.indices[0], d.opts...)
		if err != nil {
			return err
		}
		return d.checkRecords(o.indices, [][]byte{rec})
	}
}

func (d *deployment) checkRecords(indices []uint64, recs [][]byte) error {
	if len(recs) != len(indices) {
		return errMismatch
	}
	for i, idx := range indices {
		if !bytes.Equal(recs[i], d.db.Record(int(idx))) {
			return errMismatch
		}
	}
	return nil
}

// checkValue verifies a keyword lookup outcome against the shadow map:
// a present key must return its latest value, an absent one ErrNotFound.
func (d *deployment) checkValue(key, val []byte, err error) error {
	want, present := d.shadow[string(key)]
	switch {
	case errors.Is(err, impir.ErrNotFound):
		if present {
			return errMismatch
		}
		return nil
	case err != nil:
		return err
	case !present || !bytes.Equal(val, want):
		return errMismatch
	}
	return nil
}

// selfCheck proves the verifier can fail: it flips one byte of the
// benchmark's copy under a read, requires that read to be reported as a
// mismatch, restores the byte and requires the same read to pass.
func (d *deployment) selfCheck(ctx context.Context, seed uint64) error {
	r := newRNG(seed, streamSelfCheck)
	var o op
	var flip *byte
	if d.kv != nil {
		o = op{key: d.keys[r.intn(len(d.keys))]}
		flip = &d.shadow[string(o.key)][0]
	} else {
		o = d.next(r, true)
		flip = &d.db.Record(int(o.indices[0]))[0]
	}
	*flip ^= 0x01
	err := d.do(ctx, o)
	*flip ^= 0x01
	if !errors.Is(err, errMismatch) {
		return fmt.Errorf("self-check: corrupted copy not detected (got %v)", err)
	}
	if err := d.do(ctx, o); err != nil {
		return fmt.Errorf("self-check: restored copy rejected: %w", err)
	}
	return nil
}

// Independent input streams of one seed.
const (
	streamData = iota + 1
	streamFirstOp
	streamSelfCheck
	streamWarmup
	streamRounds
	streamArrivals
	streamLadder
	streamProbe
)
