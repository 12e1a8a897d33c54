package dpf

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"

	"github.com/impir/impir/internal/aesprf"
	"github.com/impir/impir/internal/bitvec"
)

// Strategy selects how the full-domain evaluation tree is traversed and
// parallelised. The trade-offs are discussed in §3.2 of the paper (and at
// length by Lam et al. for GPUs): both strategies bound working-set size
// and differ only in chunk size.
type Strategy int

const (
	// StrategySubtree is IM-PIR's host-side approach: a master pass
	// expands the tree breadth-first to level L = log₂(workers), then
	// each worker expands its perfect subtree independently. Default.
	StrategySubtree Strategy = iota + 1
	// StrategyMemoryBounded is Lam et al.'s chunked traversal: depth-
	// first over fixed-size chunks, each expanded breadth-first, keeping
	// the working set at O(chunk) regardless of N.
	StrategyMemoryBounded
)

func (s Strategy) String() string {
	switch s {
	case StrategySubtree:
		return "subtree"
	case StrategyMemoryBounded:
		return "memory-bounded"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// FullEvalOptions configures EvalFull.
type FullEvalOptions struct {
	// Strategy selects the traversal; zero value means StrategySubtree.
	Strategy Strategy
	// Workers is the parallelism degree. Zero means GOMAXPROCS. The
	// effective worker count is rounded down to a power of two and
	// capped so every worker owns at least one terminal node.
	Workers int
	// Leaves bounds the evaluation to the indices [0, Leaves) of a
	// database of that many records: every subtree whose first terminal
	// node lies at or beyond ⌈Leaves/128⌉ is skipped, and the bits from
	// Leaves on are zero. The vector still spans the whole domain. Zero
	// means the whole domain.
	Leaves int
}

// Chunk sizes in output leaves (indices); a chunk holds chunk/128
// terminal nodes.
const (
	defaultSubtreeChunk = 1 << 14
	defaultBoundedChunk = 1 << 10
)

// EvalFull evaluates the key on every index of its domain, or of the
// prefix opts.Leaves names, returning the packed share vector v of
// 2^Domain bits with v[x] = Eval(k, x) below the bound and zero from it
// on. This is the server-side "key evaluation" phase of Algorithm 1
// (line 13–18).
func (k *Key) EvalFull(opts FullEvalOptions) (*bitvec.Vector, error) {
	if err := k.checkShape(); err != nil {
		return nil, err
	}
	n := 1 << uint(k.Domain)
	leaves := opts.Leaves
	if leaves == 0 {
		leaves = n
	}
	if leaves < 0 || leaves > n {
		return nil, fmt.Errorf("dpf: leaf bound %d outside the domain of %d indices", opts.Leaves, n)
	}
	var chunk int
	switch opts.Strategy {
	case 0, StrategySubtree:
		chunk = defaultSubtreeChunk
	case StrategyMemoryBounded:
		chunk = defaultBoundedChunk
	default:
		return nil, fmt.Errorf("dpf: unknown strategy %d", opts.Strategy)
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out := bitvec.New(n)
	k.evalSubtreeParallel(out, workers, chunk, leaves)
	return out, nil
}

// node is a (seed, control-bit) pair at some tree depth.
type node struct {
	seed aesprf.Block
	t    bool
}

// evalSubtreeParallel implements both StrategySubtree and
// StrategyMemoryBounded: the only difference between them is chunk size.
// The master thread expands breadth-first down to the worker level; each
// worker then walks its perfect subtree depth-first over chunks, expanding
// each chunk breadth-first with the batched PRG and writing every terminal
// node's 128 selector bits as two words of out. Only the terminal nodes
// covering the first leaves indices are evaluated; the bits from leaves
// on are left zero.
func (k *Key) evalSubtreeParallel(out *bitvec.Vector, workers, chunkLeaves, leaves int) {
	words := out.Words()
	defer clearFrom(words, leaves)
	depth := len(k.CW)
	if depth == 0 {
		// The root is the only terminal node; its block covers all
		// ≤ 128 indices.
		b := k.leafBlock(node{k.RootSeed, k.RootT})
		lo, hi := blockWords(&b)
		words[0] = lo
		if len(words) > 1 {
			words[1] = hi
		}
		out.TrailingWordMask()
		return
	}

	// Round workers down to a power of two no larger than the number of
	// terminal nodes: 2^level workers, one per frontier node.
	level := min(bits.Len(uint(workers))-1, depth)
	perWorker := 1 << uint(depth-level)
	chunkNodes := min(max(chunkLeaves/leafBits, 1), perWorker)
	limit := (leaves + leafBits - 1) / leafBits
	if level == 0 {
		// One worker walks the whole tree on the calling goroutine, with
		// no frontier or goroutine bookkeeping to allocate.
		wk := k.newWalker(chunkNodes, words, limit)
		wk.evalRange(node{k.RootSeed, k.RootT}, 0, 0, perWorker)
		return
	}

	// Master pass: expand to the worker level.
	frontier := k.expandToLevel(level)

	var wg sync.WaitGroup
	for w := 1; w < len(frontier) && w*perWorker < limit; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wk := k.newWalker(chunkNodes, words, limit)
			wk.evalRange(frontier[w], level, w*perWorker, perWorker)
		}()
	}
	wk := k.newWalker(chunkNodes, words, limit)
	wk.evalRange(frontier[0], level, 0, perWorker)
	wg.Wait()
}

// clearFrom zeroes the bits from leaves on that the last evaluated
// terminal node wrote; every later word was never written.
func clearFrom(words []uint64, leaves int) {
	if r := leaves % 64; r != 0 {
		words[leaves/64] &= 1<<uint(r) - 1
	}
	end := (leaves + leafBits - 1) / leafBits * (leafBits / 64)
	clear(words[(leaves+63)/64 : min(end, len(words))])
}

// expandToLevel runs breadth-first expansion from the root down to the
// given level, returning the 2^level frontier nodes in index order.
func (k *Key) expandToLevel(level int) []node {
	cur := []node{{k.RootSeed, k.RootT}}
	for d := 0; d < level; d++ {
		next := make([]node, 0, 2*len(cur))
		for _, nd := range cur {
			l, r := expandNode(nd.seed)
			l, r = k.correct(l, r, nd.t, d)
			next = append(next, l, r)
		}
		cur = next
	}
	return cur
}

// walker is one worker's scratch, allocated once per EvalFull call and
// reused across that worker's chunks: the seeds and control bits of a
// chunk's current level, and PRG output space of the same size (at least
// two blocks, for the single-node splits of the depth-first descent).
type walker struct {
	k     *Key
	words []uint64 // output vector storage; terminal node m owns words 2m, 2m+1
	limit int      // terminal nodes from limit on are not evaluated
	seeds []aesprf.Block
	ts    []bool
	tmp   []aesprf.Block
}

func (k *Key) newWalker(chunkNodes int, words []uint64, limit int) walker {
	buf := make([]aesprf.Block, chunkNodes+max(chunkNodes, 2))
	return walker{
		k:     k,
		words: words,
		limit: limit,
		seeds: buf[:chunkNodes],
		ts:    make([]bool, chunkNodes),
		tmp:   buf[chunkNodes:],
	}
}

// evalRange evaluates the subtree rooted at root, which sits at the given
// depth and covers count terminal nodes starting at terminal index first,
// skipping it when it lies wholly at or beyond the walker's limit.
// Working-set memory is bounded by the walker's chunk size.
func (w *walker) evalRange(root node, depth, first, count int) {
	if first >= w.limit {
		return
	}
	if count <= len(w.seeds) {
		w.evalChunk(root, depth, first, count)
		return
	}
	// Depth-first split: recurse into the two half-subtrees. Recursion
	// depth is at most the tree depth ≤ 55.
	w.seeds[0] = root.seed
	prg.ExpandBatch(w.seeds[:1], w.tmp[:1], w.tmp[1:2])
	l, r := w.k.correct(split(w.tmp[0]), split(w.tmp[1]), root.t, depth)
	half := count / 2
	w.evalRange(l, depth+1, first, half)
	w.evalRange(r, depth+1, first+half, half)
}

// evalChunk expands root breadth-first, in place, down to its count
// terminal nodes, then converts each terminal seed into 128 selector bits
// written straight into the output words. Only the nodes below the
// walker's limit are converted, and a level expands only the parents
// with such a node beneath them.
func (w *walker) evalChunk(root node, depth, first, count int) {
	k, seeds, ts := w.k, w.seeds, w.ts
	live := min(count, w.limit-first)
	seeds[0], ts[0] = root.seed, root.t
	for d, width := depth, 1; width < count; d, width = d+1, 2*width {
		span := count / width // terminal nodes under each parent
		parents := (live + span - 1) / span
		left, right := w.tmp[:parents], w.tmp[parents:2*parents]
		prg.ExpandBatch(seeds[:parents], left, right)
		// Children of node i go to 2i and 2i+1; walking i downwards never
		// overwrites a parent still to be read.
		for i := parents - 1; i >= 0; i-- {
			l, r := k.correct(split(left[i]), split(right[i]), ts[i], d)
			seeds[2*i], ts[2*i] = l.seed, l.t
			seeds[2*i+1], ts[2*i+1] = r.seed, r.t
		}
	}

	conv := w.tmp[:live]
	for i := range conv {
		convertCipher.Encrypt(conv[i][:], seeds[i][:])
	}
	cwLo, cwHi := blockWords(&k.LeafCW)
	out := w.words[2*first : 2*(first+live)]
	for i := range conv {
		lo, hi := blockWords(&conv[i])
		sLo, sHi := blockWords(&seeds[i])
		lo, hi = lo^sLo, hi^sHi
		if ts[i] {
			lo, hi = lo^cwLo, hi^cwHi
		}
		out[2*i], out[2*i+1] = lo, hi
	}
}

// evalLevelByLevel holds the whole terminal level in memory with one
// worker and one chunk. Tests compare the production walker against it.
func (k *Key) evalLevelByLevel(out *bitvec.Vector) {
	k.evalSubtreeParallel(out, 1, 1<<uint(k.Domain), 1<<uint(k.Domain))
}
