package impir

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"reflect"
	"sync/atomic"
	"testing"

	"github.com/impir/impir/internal/batchcode"
	"github.com/impir/impir/internal/pirproto"
)

// wireTap forwards TCP to one server frame by frame, counting frames and
// bytes in each direction. A frame is counted before it is forwarded, so
// once a call returns, every frame it caused has been counted.
type wireTap struct {
	addr string
	n    [4]atomic.Uint64 // frames up, bytes up, frames down, bytes down
}

func startWireTap(t *testing.T, backend string) *wireTap {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	w := &wireTap{addr: lis.Addr().String()}
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", backend)
			if err != nil {
				conn.Close()
				continue
			}
			go w.pipe(up, conn, 0)
			go w.pipe(conn, up, 2)
		}
	}()
	return w
}

// pipe copies frames from src to dst, counting them in n[at] and their
// bytes, 8-byte header included, in n[at+1].
func (w *wireTap) pipe(dst, src net.Conn, at int) {
	defer dst.Close()
	defer src.Close()
	for {
		typ, flags, payload, err := pirproto.ReadFrameFlags(src)
		if err != nil {
			return
		}
		w.n[at].Add(1)
		w.n[at+1].Add(uint64(8 + len(payload)))
		if err := pirproto.WriteFrameFlags(dst, typ, flags, payload); err != nil {
			return
		}
	}
}

// tapDeployment puts a wireTap in front of every replica of d, in
// manifest order (shard, party, replica), rewriting d's addresses.
func tapDeployment(t *testing.T, d Deployment) []*wireTap {
	t.Helper()
	var taps []*wireTap
	for _, shard := range d.Shards {
		for _, party := range shard.Parties {
			for r, addr := range party.Replicas {
				tap := startWireTap(t, addr)
				party.Replicas[r] = tap.addr
				taps = append(taps, tap)
			}
		}
	}
	return taps
}

func tapCounts(taps []*wireTap) [][4]uint64 {
	out := make([][4]uint64, len(taps))
	for i, tap := range taps {
		for j := range out[i] {
			out[i][j] = tap.n[j].Load()
		}
	}
	return out
}

// TestWireTranscriptAcrossTopologies pins what every server sees of one
// fixed call sequence — Retrieve, the same Retrieve again, a
// RetrieveBatch of three, an Update — on six topologies. The frame and byte counts are a function of
// the public deployment parameters alone, so they are constants: a change
// to the client pipeline that moves any of them changes the wire. Each
// topology's own e2e test checks that Open returned the one *Client.
func TestWireTranscriptAcrossTopologies(t *testing.T) {
	ctx := context.Background()
	const n, recordSize = 256, 32
	db := codedTestDB(t, n, recordSize)
	code, err := batchcode.Derive(n, recordSize, 4, 2, 1, 8, 29)
	if err != nil {
		t.Fatal(err)
	}
	coded, err := batchcode.Encode(db, code)
	if err != nil {
		t.Fatal(err)
	}
	pairs := make([]KVPair, 40)
	for i := range pairs {
		pairs[i] = KVPair{Key: []byte(fmt.Sprintf("key-%03d", i)), Value: []byte(fmt.Sprintf("value-%03d", i))}
	}
	kvdb, kvm, err := BuildKVDB(pairs, KVTableOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	kvCode, err := batchcode.Derive(uint64(kvdb.NumRecords()), kvdb.RecordSize(), 8, 2, 2, 16, 31)
	if err != nil {
		t.Fatal(err)
	}
	kvCoded, err := batchcode.Encode(kvdb, kvCode)
	if err != nil {
		t.Fatal(err)
	}

	each := func(servers int, counts [4]uint64) [][4]uint64 {
		out := make([][4]uint64, servers)
		for i := range out {
			out[i] = counts
		}
		return out
	}
	flat := func(db *DB, parties int) Deployment {
		addrs, _ := startShardCohort(t, db, parties)
		return FlatDeployment(addrs...)
	}
	sharded := func(db *DB) Deployment {
		m, _ := startCluster(t, db, 2)
		return m
	}
	for _, tc := range []struct {
		name   string
		deploy func() Deployment
		opts   []ClientOption
		shards int
		want   [][4]uint64 // per server: frames up, bytes up, frames down, bytes down
	}{
		{"flat_dpf", func() Deployment { return flat(db, 2) }, nil, 1, each(2, [4]uint64{4, 366, 4, 208})},
		{"flat_shares_3", func() Deployment { return flat(db, 3) }, nil, 1, each(3, [4]uint64{4, 296, 4, 208})},
		{"sharded_2", func() Deployment { return sharded(db) }, nil, 2,
			append(each(2, [4]uint64{4, 281, 4, 208}), each(2, [4]uint64{3, 225, 3, 200})...)},
		{"coded_flat_sideinfo", func() Deployment { return flat(coded, 2).WithBatchCode(code) },
			nil, 1, each(2, [4]uint64{4, 764, 4, 280})},
		{"coded_sharded_2", func() Deployment { return sharded(coded).WithBatchCode(code) }, nil, 2, each(4, [4]uint64{4, 451, 4, 208})},
		{"keyword_coded_sharded_2", func() Deployment { return sharded(kvCoded).WithKeyword(kvm).WithBatchCode(kvCode) },
			nil, 2, each(4, [4]uint64{5, 1391, 5, 1668})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := tc.deploy()
			taps := tapDeployment(t, d)
			var (
				store Store
				kv    *KVClient
				err   error
			)
			if d.Keyword != nil {
				if kv, err = OpenKV(ctx, d, tc.opts...); err == nil {
					store = kv.Store()
				}
			} else {
				store, err = Open(ctx, d, tc.opts...)
			}
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			if got := len(store.Stats().Shards); got != tc.shards {
				t.Fatalf("Stats().Shards has %d entries, want %d", got, tc.shards)
			}

			before := tapCounts(taps)
			if kv != nil {
				for _, k := range []int{0, 0} {
					if _, err := kv.Get(ctx, pairs[k].Key); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := kv.GetBatch(ctx, [][]byte{pairs[1].Key, pairs[2].Key, pairs[3].Key}); err != nil {
					t.Fatal(err)
				}
				if err := kv.Put(ctx, pairs[4].Key, []byte("fresh")); err != nil {
					t.Fatal(err)
				}
			} else {
				for _, idx := range []uint64{5, 5} {
					if _, err := store.Retrieve(ctx, idx); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := store.RetrieveBatch(ctx, []uint64{1, 100, 200}); err != nil {
					t.Fatal(err)
				}
				if err := store.Update(ctx, map[uint64][]byte{7: bytes.Repeat([]byte{0xEE}, recordSize)}); err != nil {
					t.Fatal(err)
				}
			}
			got := tapCounts(taps)
			for i := range got {
				for j := range got[i] {
					got[i][j] -= before[i][j]
				}
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("wire transcript %#v, want %#v", got, tc.want)
			}
		})
	}
}
