package cfg

import "repro/internal/arena"

// Path is one entry-to-exit block sequence.
type Path []*Block

// Paths enumerates acyclic-ish execution paths from Entry to Exit: each block
// may appear at most twice on a path (so loop bodies are taken at most once,
// which is what the paper's templates need — a smartloop bug shows up on the
// first iteration). Enumeration stops after max paths to bound cost on
// branch-heavy functions; max <= 0 means DefaultMaxPaths.
func (g *Graph) Paths(max int) []Path {
	if max <= 0 {
		max = DefaultMaxPaths
	}
	// A method-based walker instead of recursive closures: the closure pair
	// (walk capturing itself plus its shared state) cost several heap
	// allocations per function, and Paths runs once per function. Visit
	// counts index by Block.ID, which BuildArena assigns densely.
	w := pathWalker{
		g:      g,
		max:    max,
		visits: make([]int8, len(g.Blocks)),
		// A block appears at most twice on a path.
		cur: make(Path, 0, min(2*len(g.Blocks), 64)),
	}
	w.walk(g.Entry)
	return w.out
}

type pathWalker struct {
	g      *Graph
	max    int
	out    []Path
	visits []int8
	cur    Path
	// Completed paths are copied into chunked backing storage and returned
	// as capacity-bounded windows of it. Chunks follow arena.ChunkLen's
	// schedule (pathChunkFirst doubling to pathChunk blocks), so a function
	// with a few short paths pays for a short chunk while one with
	// thousands still costs one allocation per pathChunk blocks.
	back Path
}

const (
	pathChunkFirst = 16
	pathChunk      = 1024
)

func (w *pathWalker) emit() {
	if cap(w.back)-len(w.back) < len(w.cur) {
		n := max(arena.ChunkLen(cap(w.back), pathChunkFirst, pathChunk), len(w.cur))
		w.back = make(Path, 0, n)
	}
	start := len(w.back)
	w.back = append(w.back, w.cur...)
	w.out = append(w.out, w.back[start:len(w.back):len(w.back)])
}

func (w *pathWalker) walk(b *Block) {
	if len(w.out) >= w.max {
		return
	}
	if w.visits[b.ID] >= 2 {
		return
	}
	w.visits[b.ID]++
	w.cur = append(w.cur, b)
	if b == w.g.Exit {
		w.emit()
	} else {
		for _, s := range b.Succs {
			w.walk(s)
		}
	}
	w.cur = w.cur[:len(w.cur)-1]
	w.visits[b.ID]--
}

// DefaultMaxPaths bounds path enumeration per function.
const DefaultMaxPaths = 4096
