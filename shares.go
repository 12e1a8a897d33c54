package impir

import (
	"context"
	"fmt"

	"github.com/impir/impir/internal/bitvec"
	"github.com/impir/impir/internal/dpf"
	"github.com/impir/impir/internal/naivepir"
	"github.com/impir/impir/internal/pirproto"
)

// Share is one server's selector share under the naive n-server encoding
// of §2.3 / Figure 2 of the paper: an explicit N-bit vector, one bit per
// database record. The XOR of a query's shares is the one-hot indicator
// of the queried index; any proper subset is uniformly random.
//
// Compared with DPF keys (O(λ·log N) bytes), shares cost O(N) bits per
// server — but they work with any number of servers ≥ 2, whereas the DPF
// encoding in this module is two-party. Use GenerateShares + AnswerShare
// (or a Client with EncodingShares over the network) for deployments
// with more than two servers; use GenerateKeys for the
// bandwidth-efficient two-server path.
type Share = bitvec.Vector

// GenerateShares encodes a query for `servers` non-colluding servers
// using the naive §2.3 scheme. Send shares[s] to server s.
func GenerateShares(numRecords int, index uint64, servers int) ([]*Share, error) {
	// A server holds exactly its records but announces, and takes
	// shares over, the 2^d index space that covers them.
	domain, err := DomainFor(numRecords)
	if err != nil {
		return nil, err
	}
	if index >= uint64(numRecords) {
		return nil, fmt.Errorf("impir: index %d outside database of %d records", index, numRecords)
	}
	q, err := naivepir.Gen(nil, 1<<uint(domain), index, servers)
	if err != nil {
		return nil, err
	}
	return q.Shares, nil
}

// AnswerShare processes a raw selector-share query on this server — the
// n-server generalisation. The share must cover the 2^d index space
// that holds the server's records (as produced by GenerateShares). Like
// Answer, the request goes through the scheduler: it is
// admission-controlled, and a context cancelled while queued dequeues
// it without an engine pass.
func (s *Server) AnswerShare(ctx context.Context, share *Share) ([]byte, Breakdown, error) {
	return single(s.sched.Query(ctx, pirproto.MsgShareQuery, dpf.Batch{Shares: []*Share{share}}))
}
