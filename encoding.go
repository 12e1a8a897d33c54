package impir

import (
	"fmt"

	"github.com/impir/impir/internal/dpf"
	"github.com/impir/impir/internal/naivepir"
	"github.com/impir/impir/internal/pirproto"
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
// key or one selector share per index, sent as one query frame — a
// batch frame, or a single-query frame for the one index.
type serverQuery struct {
	frame pirproto.MsgType
	in    dpf.Batch
}

// encode produces one query per party covering every index under the
// resolved scheme e. Selector shares cover the 2^d index space the
// servers' hello announces, not just the records they hold.
func encode(e Encoding, g geometry, parties int, indices []uint64, batch bool) ([]serverQuery, error) {
	frame := pirproto.MsgQuery
	switch {
	case e == EncodingDPF && batch:
		frame = pirproto.MsgBatchQuery
	case batch:
		frame = pirproto.MsgShareBatchQuery
	case e != EncodingDPF:
		frame = pirproto.MsgShareQuery
	}
	out := make([]serverQuery, parties)
	for p := range out {
		out[p].frame = frame
	}
	for _, idx := range indices {
		if e == EncodingDPF {
			k0, k1, err := dpf.Gen(dpf.Params{Domain: g.domain}, idx, nil)
			if err != nil {
				return nil, err
			}
			out[0].in.Keys, out[1].in.Keys = append(out[0].in.Keys, k0), append(out[1].in.Keys, k1)
			continue
		}
		q, err := naivepir.Gen(nil, int(g.numRecords), idx, parties)
		if err != nil {
			return nil, err
		}
		for p, share := range q.Shares {
			out[p].in.Shares = append(out[p].in.Shares, share)
		}
	}
	return out, nil
}
