package impir

import (
	"context"
	"fmt"

	"github.com/impir/impir/internal/bitvec"
	"github.com/impir/impir/internal/dpf"
	"github.com/impir/impir/internal/naivepir"
	"github.com/impir/impir/internal/transport"
)

// Encoding selects how a Client turns a record index into per-server
// query messages. Two encodings ship with the package, matching the two
// schemes the paper evaluates:
//
//   - EncodingDPF: the bandwidth-efficient two-server scheme — a DPF key
//     pair of O(λ·log N) bytes per server. Exactly two servers.
//   - EncodingShares: the naive §2.3 / Figure 2 scheme — an explicit
//     N-bit selector share per server. Any n ≥ 2 servers; privacy holds
//     as long as at least one server does not collude.
//
// EncodingAuto, the Client default, picks DPF for two-server deployments
// and shares otherwise — the per-deployment bandwidth/generality
// tradeoff resolved from the server count. In a sharded deployment the
// resolution happens per cohort: each shard's sub-query is encoded
// against that cohort's replica count and padded record count, so a
// two-replica cohort uses DPF keys while a three-replica cohort in the
// same cluster uses selector shares. The interface is closed;
// deployments choose an encoding, they do not implement new ones.
type Encoding interface {
	// String names the encoding ("auto", "dpf", "shares").
	String() string
	// resolve returns the concrete query coder for an n-server
	// deployment, or an error when the encoding cannot serve it.
	resolve(servers int) (queryCoder, error)
}

// Package-level encoding selectors; pass to WithEncoding.
var (
	// EncodingAuto selects EncodingDPF for two servers and
	// EncodingShares for three or more. The Client default.
	EncodingAuto Encoding = autoEncoding{}
	// EncodingDPF forces the two-server DPF encoding.
	EncodingDPF Encoding = dpfEncoding{}
	// EncodingShares forces the naive share encoding, which works for
	// any deployment size n ≥ 2 at O(N)-bit query cost — including
	// two-server deployments, where it is the communication-ablation
	// baseline of the paper's §5.
	EncodingShares Encoding = shareEncoding{}
)

// ParseEncoding converts a command-line encoding name.
func ParseEncoding(s string) (Encoding, error) {
	switch s {
	case "auto", "":
		return EncodingAuto, nil
	case "dpf":
		return EncodingDPF, nil
	case "shares", "share", "naive":
		return EncodingShares, nil
	default:
		return nil, fmt.Errorf("impir: unknown encoding %q (want auto, dpf, or shares)", s)
	}
}

// geometry is the database shape a deployment's servers agreed on during
// the handshake; coders encode queries against it.
type geometry struct {
	domain     int
	numRecords uint64 // power-of-two padded record count the servers hold
}

// queryCoder generates the per-server wire messages of one encoding for
// a fixed deployment size.
type queryCoder interface {
	name() string
	// encode produces one query message per server covering every index:
	// a batch frame, answered in one round trip, when batch is true, and
	// otherwise a single-query frame for the one index.
	encode(g geometry, servers int, indices []uint64, batch bool) ([]serverQuery, error)
}

// serverQuery is one server's portion of an encoded query, executable
// against that server's connection. do returns one subresult per
// encoded index.
type serverQuery interface {
	do(ctx context.Context, c *transport.Conn) ([][]byte, error)
}

type autoEncoding struct{}

func (autoEncoding) String() string { return "auto" }

func (autoEncoding) resolve(servers int) (queryCoder, error) {
	if servers == 2 {
		return dpfCoder{}, nil
	}
	return shareCoder{}, nil
}

type dpfEncoding struct{}

func (dpfEncoding) String() string { return "dpf" }

func (dpfEncoding) resolve(servers int) (queryCoder, error) {
	if servers != 2 {
		return nil, fmt.Errorf("impir: the DPF encoding is two-party, deployment has %d servers (use EncodingShares)", servers)
	}
	return dpfCoder{}, nil
}

type shareEncoding struct{}

func (shareEncoding) String() string { return "shares" }

func (shareEncoding) resolve(servers int) (queryCoder, error) {
	if servers < naivepir.MinServers {
		return nil, fmt.Errorf("impir: need ≥ %d servers, got %d", naivepir.MinServers, servers)
	}
	return shareCoder{}, nil
}

// dpfCoder encodes queries as DPF key pairs.
type dpfCoder struct{}

func (dpfCoder) name() string { return "dpf" }

func (dpfCoder) encode(g geometry, servers int, indices []uint64, batch bool) ([]serverQuery, error) {
	keys := make([][]*dpf.Key, 2)
	for _, idx := range indices {
		k0, k1, err := dpf.Gen(dpf.Params{Domain: g.domain}, idx, nil)
		if err != nil {
			return nil, err
		}
		keys[0], keys[1] = append(keys[0], k0), append(keys[1], k1)
	}
	return []serverQuery{keyQuery{keys[0], batch}, keyQuery{keys[1], batch}}, nil
}

// shareCoder encodes queries as explicit selector shares over the padded
// index space (the servers pad databases to powers of two, so shares
// must cover the padded record count to match).
type shareCoder struct{}

func (shareCoder) name() string { return "shares" }

func (shareCoder) encode(g geometry, servers int, indices []uint64, batch bool) ([]serverQuery, error) {
	perServer := make([][]*bitvec.Vector, servers)
	for _, idx := range indices {
		q, err := naivepir.Gen(nil, int(g.numRecords), idx, servers)
		if err != nil {
			return nil, err
		}
		for s, share := range q.Shares {
			perServer[s] = append(perServer[s], share)
		}
	}
	out := make([]serverQuery, servers)
	for s, shares := range perServer {
		out[s] = shareQuery{shares, batch}
	}
	return out, nil
}

type keyQuery struct {
	keys  []*dpf.Key
	batch bool
}

func (q keyQuery) do(ctx context.Context, c *transport.Conn) ([][]byte, error) {
	if q.batch {
		return c.QueryBatch(ctx, q.keys)
	}
	r, err := c.Query(ctx, q.keys[0])
	return [][]byte{r}, err
}

type shareQuery struct {
	shares []*bitvec.Vector
	batch  bool
}

func (q shareQuery) do(ctx context.Context, c *transport.Conn) ([][]byte, error) {
	if q.batch {
		return c.QueryShareBatch(ctx, q.shares)
	}
	r, err := c.QueryShare(ctx, q.shares[0])
	return [][]byte{r}, err
}
