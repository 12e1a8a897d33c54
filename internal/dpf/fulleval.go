package dpf

import (
	"fmt"
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
	// capped so every worker owns at least one chunk.
	Workers int
}

const (
	defaultSubtreeChunk = 1 << 14
	defaultBoundedChunk = 1 << 10
)

// EvalFull evaluates the key on every index of its domain, returning the
// packed N-bit share vector v with v[x] = Eval(k, x). This is the
// server-side "key evaluation" phase of Algorithm 1 (line 13–18).
func (k *Key) EvalFull(opts FullEvalOptions) (*bitvec.Vector, error) {
	if len(k.CW) != int(k.Domain) {
		return nil, fmt.Errorf("dpf: malformed key: %d correction words for domain %d", len(k.CW), k.Domain)
	}
	n := 1 << uint(k.Domain)
	out := bitvec.New(n)

	if k.Domain == 0 {
		out.SetTo(0, k.RootT)
		return out, nil
	}

	strategy := opts.Strategy
	if strategy == 0 {
		strategy = StrategySubtree
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	switch strategy {
	case StrategySubtree:
		k.evalSubtreeParallel(out, workers, defaultSubtreeChunk)
	case StrategyMemoryBounded:
		k.evalSubtreeParallel(out, workers, defaultBoundedChunk)
	default:
		return nil, fmt.Errorf("dpf: unknown strategy %d", strategy)
	}
	out.TrailingWordMask()
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
// each chunk breadth-first with the batched PRG.
func (k *Key) evalSubtreeParallel(out *bitvec.Vector, workers, chunkLeaves int) {
	domain := int(k.Domain)
	n := 1 << uint(domain)

	// Round workers down to a power of two no larger than the domain
	// permits; every worker must own ≥ 64 leaves so its output range is
	// word-aligned in the bit vector.
	wBits := 0
	for (1<<(wBits+1)) <= workers && wBits+1 <= domain && n>>(wBits+1) >= 64 {
		wBits++
	}
	if n < 128 {
		wBits = 0
	}
	numWorkers := 1 << uint(wBits)

	if chunkLeaves > n/numWorkers {
		chunkLeaves = n / numWorkers
	}
	if chunkLeaves < 64 {
		chunkLeaves = min(64, n/numWorkers)
	}

	// Master pass: expand to the worker level.
	frontier := k.expandToLevel(wBits)

	leavesPerWorker := uint64(n / numWorkers)
	var wg sync.WaitGroup
	for w := 0; w < numWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w) * leavesPerWorker
			k.evalRange(frontier[w], wBits, base, leavesPerWorker, chunkLeaves, out)
		}(w)
	}
	wg.Wait()
}

// expandToLevel runs breadth-first expansion from the root down to the
// given level, returning the 2^level frontier nodes in index order.
func (k *Key) expandToLevel(level int) []node {
	cur := []node{{seed: k.RootSeed, t: k.RootT}}
	for d := 0; d < level; d++ {
		next := make([]node, 0, 2*len(cur))
		cw := &k.CW[d]
		for _, nd := range cur {
			sL, tL, sR, tR := expandNode(nd.seed)
			if nd.t {
				sL = xorBlocks(sL, cw.Seed)
				sR = xorBlocks(sR, cw.Seed)
				tL = tL != cw.TLeft
				tR = tR != cw.TRight
			}
			next = append(next, node{sL, tL}, node{sR, tR})
		}
		cur = next
	}
	return cur
}

// evalRange evaluates the subtree rooted at root (which sits at the given
// depth and covers `count` leaves starting at leafBase), writing leaf
// control bits into out. Working-set memory is bounded by chunkLeaves.
func (k *Key) evalRange(root node, depth int, leafBase, count uint64, chunkLeaves int, out *bitvec.Vector) {
	if count <= uint64(chunkLeaves) {
		k.evalChunkBFS(root, depth, leafBase, count, out)
		return
	}
	// Depth-first split: recurse into the two half-subtrees. Recursion
	// depth is at most Domain ≤ 62.
	sL, tL, sR, tR := expandNode(root.seed)
	if root.t {
		cw := &k.CW[depth]
		sL = xorBlocks(sL, cw.Seed)
		sR = xorBlocks(sR, cw.Seed)
		tL = tL != cw.TLeft
		tR = tR != cw.TRight
	}
	half := count / 2
	k.evalRange(node{sL, tL}, depth+1, leafBase, half, chunkLeaves, out)
	k.evalRange(node{sR, tR}, depth+1, leafBase+half, half, chunkLeaves, out)
}

// evalChunkBFS expands one chunk breadth-first from a single node down to
// the leaves, packing the leaf control bits into out. Uses the batched
// PRG API so AES blocks pipeline, and double-buffers seed storage so each
// level reuses the previous level's allocations.
func (k *Key) evalChunkBFS(root node, depth int, leafBase, count uint64, out *bitvec.Vector) {
	domain := int(k.Domain)
	cnt := int(count)

	cur := make([]aesprf.Block, 1, cnt)
	next := make([]aesprf.Block, 0, cnt)
	tsCur := make([]bool, 1, cnt)
	tsNext := make([]bool, 0, cnt)
	left := make([]aesprf.Block, 0, (cnt+1)/2)
	right := make([]aesprf.Block, 0, (cnt+1)/2)
	cur[0], tsCur[0] = root.seed, root.t

	for d := depth; d < domain; d++ {
		width := len(cur)
		left = left[:width]
		right = right[:width]
		prg.ExpandBatch(cur, left, right)

		cw := &k.CW[d]
		next = next[:2*width]
		tsNext = tsNext[:2*width]
		for i := 0; i < width; i++ {
			sL, sR := left[i], right[i]
			tL := sL[0]&1 == 1
			tR := sR[0]&1 == 1
			sL[0] &^= 1
			sR[0] &^= 1
			if tsCur[i] {
				sL = xorBlocks(sL, cw.Seed)
				sR = xorBlocks(sR, cw.Seed)
				tL = tL != cw.TLeft
				tR = tR != cw.TRight
			}
			next[2*i], tsNext[2*i] = sL, tL
			next[2*i+1], tsNext[2*i+1] = sR, tR
		}
		cur, next = next, cur
		tsCur, tsNext = tsNext, tsCur
	}

	packLeafBits(tsCur, leafBase, out)
}

// packLeafBits writes consecutive leaf control bits starting at leafBase
// into the output vector. When the base is word-aligned and the count is a
// multiple of 64 the bits are packed a word at a time.
func packLeafBits(ts []bool, leafBase uint64, out *bitvec.Vector) {
	if leafBase%64 == 0 && len(ts)%64 == 0 {
		words := out.Words()
		wordBase := int(leafBase / 64)
		for w := 0; w < len(ts)/64; w++ {
			var word uint64
			for b := 0; b < 64; b++ {
				if ts[w*64+b] {
					word |= 1 << uint(b)
				}
			}
			words[wordBase+w] = word
		}
		return
	}
	for i, t := range ts {
		out.SetTo(int(leafBase)+i, t)
	}
}

// evalLevelByLevel holds each full tree level in memory. Tests compare the
// production walker against it.
func (k *Key) evalLevelByLevel(out *bitvec.Vector) {
	root := node{seed: k.RootSeed, t: k.RootT}
	k.evalChunkBFS(root, 0, 0, uint64(1)<<uint(k.Domain), out)
}
