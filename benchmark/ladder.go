package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/impir/impir"
	"github.com/impir/impir/internal/batchcode"
	"github.com/impir/impir/internal/metrics"
	"github.com/impir/impir/internal/transport"
)

// The ladder measures one op from the outside in. The program under
// test records no spans the benchmark can rely on, so for each sampled
// op the harness calls, one after another, the public entry point of
// every layer the op crosses — each call doing all the work of the
// layers beneath it — and records a span around each call:
//
//	op                        Store.Retrieve / RetrieveBatch / KVClient.Get
//	  store.retrieve_batch    (keyword) kv.Store().RetrieveBatch(ProbeIndices(key))
//	    batchcode.plan        (keyword) batchcode.NewLayout(code).PlanBatch
//	  client.keygen           impir.GenerateKeys per sub-query
//	  transport.query[s.p]    transport.Conn.Query / QueryBatch to shard s, party p
//	    server.answer[s.p]    Server.Answer / AnswerBatch in-process
//	      dpf.evalfull        from the returned Breakdown (PhaseEval wall)
//	      xorop.scan          from the returned Breakdown (PhaseDpXOR wall)
//	  client.reconstruct      impir.Reconstruct per sub-query
//
// A layer's self time is its rung minus the rungs beneath it. The rungs
// of one op run sequentially, so a child's clock interval lies after
// its parent's, not inside it; parent links carry the nesting.
type span struct {
	Trace  int    `json:"trace_id"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: the trace's root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the traced run began
	End    int64  `json:"end_ns"`
}

type ladder struct {
	d      *deployment
	epoch  time.Time
	spans  []span
	traces int
	conns  [][]*transport.Conn // [shard][party], dialled once
	layout *batchcode.Layout   // keyword workload
	dial   time.Duration       // median transport.Dial

	rungs []rungTimes
}

// rungTimes are one sampled op's rung durations. The per-party rungs
// (query and everything under it) are those of the party whose
// transport.query took longest, which is what the op waits for;
// querySum adds every party's, which is what the op costs when the
// in-process servers share cores instead of overlapping.
type rungTimes struct {
	op, retrieveBatch, plan, keygen, reconstruct time.Duration
	partyRungs
	querySum time.Duration
}

// partyRungs are the rungs one party's server sits under.
type partyRungs struct {
	query, answer, engine, eval, scan, modeled time.Duration
}

func newLadder(ctx context.Context, d *deployment) (*ladder, error) {
	l := &ladder{d: d, epoch: time.Now()}
	var dials []float64
	for _, cohort := range d.servers {
		conns := make([]*transport.Conn, len(cohort))
		l.conns = append(l.conns, conns)
		for p, srv := range cohort {
			t0 := time.Now()
			c, err := transport.Dial(ctx, srv.Addr().String())
			if err != nil {
				l.close()
				return nil, err
			}
			dials = append(dials, float64(time.Since(t0)))
			conns[p] = c
		}
	}
	l.dial = time.Duration(median(dials))
	if d.kv != nil {
		var err error
		if l.layout, err = batchcode.NewLayout(d.code); err != nil {
			l.close()
			return nil, err
		}
	}
	return l, nil
}

func (l *ladder) close() {
	for _, conns := range l.conns {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
	}
}

// timed records a span around fn.
func (l *ladder) timed(parent int, name string, fn func() error) (id int, dur time.Duration, err error) {
	start := time.Now()
	err = fn()
	end := time.Now()
	return l.add(parent, name, start, end), end.Sub(start), err
}

func (l *ladder) add(parent int, name string, start, end time.Time) int {
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{
		Trace: l.traces, ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(l.epoch)), End: int64(end.Sub(l.epoch)),
	})
	return id
}

// subBatch is what one shard cohort is asked in one op.
type subBatch struct {
	shard  int
	locals []uint64
}

// route splits a coded plan over the bucket-aligned shards the way the
// coded store does: each cohort gets its own buckets' rows plus every
// overflow slot (the real row where it owns it, a dummy elsewhere).
// where[i] locates plan slot i's answer as (cohort, position).
func (l *ladder) route(plan *batchcode.Plan, r *rng) (subs []subBatch, where [][2]int) {
	code := l.d.code
	perShard := code.TotalRows() / kvShards
	bps := code.Buckets / kvShards
	subs = make([]subBatch, kvShards)
	for s := range subs {
		subs[s] = subBatch{shard: s, locals: make([]uint64, bps+code.OverflowSlots)}
	}
	where = make([][2]int, len(plan.Indices))
	for slot, row := range plan.Indices {
		owner, pos := int(row/perShard), slot%bps
		if slot >= code.Buckets {
			pos = bps + slot - code.Buckets
			for s := range subs {
				subs[s].locals[pos] = uint64(r.intn(int(perShard)))
			}
		}
		subs[owner].locals[pos] = row % perShard
		where[slot] = [2]int{owner, pos}
	}
	return subs, where
}

// step runs every rung for one generated read.
func (l *ladder) step(ctx context.Context, r *rng) error {
	d := l.d
	l.traces++
	var rt rungTimes
	o := d.next(r, true)

	root, dur, err := l.timed(0, "op", func() error { return d.do(ctx, o) })
	if err != nil {
		return fmt.Errorf("op: %w", err)
	}
	rt.op = dur

	// Keyword rungs: the index batch under Get, then its plan.
	parent := root
	subs := []subBatch{{locals: o.indices}}
	var where [][2]int
	var plan *batchcode.Plan
	var probes []uint64
	if d.kv != nil {
		probes = d.kvm.ProbeIndices(o.key)
		var recs [][]byte
		parent, rt.retrieveBatch, err = l.timed(root, "store.retrieve_batch", func() (err error) {
			recs, err = d.store.RetrieveBatch(ctx, probes, d.opts...)
			return err
		})
		if err == nil {
			err = d.checkProbe(o.key, recs)
		}
		if err != nil {
			return fmt.Errorf("store.retrieve_batch: %w", err)
		}
		_, rt.plan, err = l.timed(parent, "batchcode.plan", func() error {
			var ok bool
			var err error
			plan, ok, err = l.layout.PlanBatch(probes, nil)
			if err == nil && !ok {
				err = fmt.Errorf("batch of %d not codeable", len(probes))
			}
			return err
		})
		if err != nil {
			return fmt.Errorf("batchcode.plan: %w", err)
		}
		subs, where = l.route(plan, r)
	}

	keys := make([][2][]*impir.Key, len(subs)) // [cohort][party][sub-query]
	_, rt.keygen, err = l.timed(parent, "client.keygen", func() error {
		for i, sb := range subs {
			n := int(l.conns[sb.shard][0].Info().NumRecords)
			for _, local := range sb.locals {
				k0, k1, err := impir.GenerateKeys(n, local)
				if err != nil {
					return err
				}
				keys[i][0], keys[i][1] = append(keys[i][0], k0), append(keys[i][1], k1)
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("client.keygen: %w", err)
	}

	answers := make([][2][][]byte, len(subs)) // [cohort][party][sub-query], from the wire rung
	for i, sb := range subs {
		for p := range keys[i] {
			var pr partyRungs
			if answers[i][p], pr, err = l.ask(ctx, parent, sb.shard, p, keys[i][p]); err != nil {
				return err
			}
			rt.querySum += pr.query
			if pr.query > rt.query {
				rt.partyRungs = pr
			}
		}
	}

	recs := make([][][]byte, len(subs)) // [cohort][sub-query]
	_, rt.reconstruct, err = l.timed(parent, "client.reconstruct", func() error {
		for i := range subs {
			recs[i] = make([][]byte, len(subs[i].locals))
			for j := range recs[i] {
				rec, err := impir.Reconstruct(answers[i][0][j], answers[i][1][j])
				if err != nil {
					return err
				}
				recs[i][j] = rec
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("client.reconstruct: %w", err)
	}

	// The hand-assembled answer must be the right bytes too.
	if d.kv == nil {
		err = d.checkRecords(o.indices, recs[0])
	} else {
		probed := make([][]byte, len(probes))
		for i, src := range plan.Sources {
			switch src.Kind {
			case batchcode.FromSlot:
				w := where[src.Slot]
				probed[i] = recs[w[0]][w[1]]
			case batchcode.FromDup:
				probed[i] = probed[src.Dup]
			}
		}
		err = d.checkProbe(o.key, probed)
	}
	if err != nil {
		return fmt.Errorf("ladder reconstruction: %w", err)
	}
	l.rungs = append(l.rungs, rt)
	return nil
}

// ask runs one party's two rungs: its share of the op over the wire,
// then the same keys against the same server in-process.
func (l *ladder) ask(ctx context.Context, parent, shard, p int, keys []*impir.Key) (answers [][]byte, pr partyRungs, err error) {
	d, conn, srv := l.d, l.conns[shard][p], l.d.servers[shard][p]
	single := d.w.batch == 0 && d.kv == nil
	tag := fmt.Sprintf("[%d.%d]", shard, p)

	var qid int
	qid, pr.query, err = l.timed(parent, "transport.query"+tag, func() (err error) {
		if single {
			var rec []byte
			rec, err = conn.Query(ctx, keys[0])
			answers = [][]byte{rec}
		} else {
			answers, err = conn.QueryBatch(ctx, keys)
		}
		return err
	})
	if err != nil {
		return nil, pr, fmt.Errorf("transport.query%s: %w", tag, err)
	}

	var bd metrics.Breakdown
	n := 1
	start := time.Now()
	aid, adur, err := l.timed(qid, "server.answer"+tag, func() (err error) {
		if single {
			_, bd, err = srv.Answer(ctx, keys[0])
			pr.engine, pr.modeled = bd.TotalWall(), bd.TotalModeled()
		} else {
			var bs impir.BatchStats
			_, bs, err = srv.AnswerBatch(ctx, keys)
			bd, n = bs.PerQuery, bs.Queries
			pr.engine, pr.modeled = bs.WallLatency, bs.ModeledLatency
		}
		return err
	})
	if err != nil {
		return nil, pr, fmt.Errorf("server.answer%s: %w", tag, err)
	}
	pr.answer = adur
	// The engine reports phase durations, not instants: lay the two
	// kernel spans end to end from the answer's start. For a batch they
	// are per-query averages × batch size.
	pr.eval = bd.Wall[metrics.PhaseEval] * time.Duration(n)
	pr.scan = bd.Wall[metrics.PhaseDpXOR] * time.Duration(n)
	l.add(aid, "dpf.evalfull", start, start.Add(pr.eval))
	l.add(aid, "xorop.scan", start.Add(pr.eval), start.Add(pr.eval+pr.scan))
	return answers, pr, nil
}

// checkProbe looks key up in its probed bucket records and verifies the
// outcome against the shadow map, as Get's caller would.
func (d *deployment) checkProbe(key []byte, recs [][]byte) error {
	for _, rec := range recs {
		val, found, err := d.kvm.FindInBucket(rec, key)
		if err != nil {
			return err
		}
		if found {
			return d.checkValue(key, val, nil)
		}
	}
	return d.checkValue(key, nil, impir.ErrNotFound)
}

// pick returns the median over sampled ops of one rung, in the unit's
// scale (e.g. float64(time.Microsecond)).
func (l *ladder) pick(f func(rungTimes) time.Duration, unit float64) float64 {
	v := make([]float64, len(l.rungs))
	for i, rt := range l.rungs {
		v[i] = float64(f(rt)) / unit
	}
	return median(v)
}

func (l *ladder) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{l.d.w.name, l.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+l.d.w.name+".json"), data, 0o644)
}
