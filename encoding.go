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
// same cluster uses selector shares. The set is closed; deployments
// choose an encoding, they do not implement new ones.
type Encoding uint8

// Encoding selectors; pass to WithEncoding.
const (
	// EncodingAuto selects EncodingDPF for two servers and
	// EncodingShares for three or more. The Client default.
	EncodingAuto Encoding = iota
	// EncodingDPF forces the two-server DPF encoding.
	EncodingDPF
	// EncodingShares forces the naive share encoding, which works for
	// any deployment size n ≥ 2 at O(N)-bit query cost — including
	// two-server deployments, where it is the communication-ablation
	// baseline of the paper's §5.
	EncodingShares
)

// String names the encoding ("auto", "dpf", "shares").
func (e Encoding) String() string {
	switch e {
	case EncodingAuto:
		return "auto"
	case EncodingDPF:
		return "dpf"
	case EncodingShares:
		return "shares"
	}
	return fmt.Sprintf("Encoding(%d)", uint8(e))
}

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
		return 0, fmt.Errorf("impir: unknown encoding %q (want auto, dpf, or shares)", s)
	}
}

// resolve returns the concrete scheme, EncodingDPF or EncodingShares,
// that e selects for a cohort of n parties (Deployment.Validate
// guarantees n ≥ 2), or an error when e cannot serve n.
func (e Encoding) resolve(n int) (Encoding, error) {
	switch {
	case e == EncodingDPF && n != 2:
		return 0, fmt.Errorf("impir: encoding %v is two-party, the cohort has %d parties (use EncodingShares)", e, n)
	case e == EncodingDPF, e == EncodingAuto && n == 2:
		return EncodingDPF, nil
	case e == EncodingAuto, e == EncodingShares:
		return EncodingShares, nil
	}
	return 0, fmt.Errorf("impir: unknown encoding %v", e)
}

// geometry is the database shape a deployment's servers agreed on during
// the handshake; queries are encoded against it.
type geometry struct {
	domain     int
	numRecords uint64 // the 2^d index space the servers report; they hold only its first N records
}

// serverQuery is one party's portion of an encoded sub-query: one DPF
// key or one selector share per index, sent as one batch frame when
// batch is true and otherwise as a single-query frame for the one index.
type serverQuery struct {
	keys   []*dpf.Key
	shares []*bitvec.Vector
	batch  bool
}

// encode produces one query per party covering every index under the
// resolved scheme e. Selector shares cover the padded index space: the
// servers pad databases to powers of two, so shares must match.
func encode(e Encoding, g geometry, parties int, indices []uint64, batch bool) ([]serverQuery, error) {
	out := make([]serverQuery, parties)
	for p := range out {
		out[p].batch = batch
	}
	for _, idx := range indices {
		if e == EncodingDPF {
			k0, k1, err := dpf.Gen(dpf.Params{Domain: g.domain}, idx, nil)
			if err != nil {
				return nil, err
			}
			out[0].keys, out[1].keys = append(out[0].keys, k0), append(out[1].keys, k1)
			continue
		}
		q, err := naivepir.Gen(nil, int(g.numRecords), idx, parties)
		if err != nil {
			return nil, err
		}
		for p, share := range q.Shares {
			out[p].shares = append(out[p].shares, share)
		}
	}
	return out, nil
}

// do executes the query against one server's connection and returns one
// subresult per encoded index.
func (q serverQuery) do(ctx context.Context, c *transport.Conn) ([][]byte, error) {
	var r []byte
	var err error
	switch {
	case q.keys != nil && q.batch:
		return c.QueryBatch(ctx, q.keys)
	case q.batch:
		return c.QueryShareBatch(ctx, q.shares)
	case q.keys != nil:
		r, err = c.Query(ctx, q.keys[0])
	default:
		r, err = c.QueryShare(ctx, q.shares[0])
	}
	return [][]byte{r}, err
}
