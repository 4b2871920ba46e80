// Package arena provides the per-translation-unit allocation substrate for
// the front end: chunked bump allocation for nodes that live exactly as long
// as their owning structure (AST nodes, CFG blocks), and capacity-retaining
// buffer pooling for scratch storage that dies at the end of a TU's front
// end (the preprocessor's expanded token stream).
//
// Two ownership regimes, one package:
//
//   - Slab[T] hands out pointers into chunks that grow geometrically up to
//     a cap, so allocating N nodes costs O(N/chunk) heap allocations
//     instead of O(N) while a slab holding k nodes never has more than
//     2k+4 slots. Slab memory is never recycled: the nodes it backs are
//     retained by their owner (a parsed file, a function's CFG), so the
//     chunks simply ride along and are collected with it.
//
//   - Pool[T] recycles whole []T buffers through a sync.Pool. Pool memory is
//     recycled wholesale: the caller must guarantee nothing retains the
//     buffer past Put (see internal/cpg for the token-buffer lifetime
//     argument).
//
// An Arena ties per-TU releases together with exactly-once semantics:
// release hooks (typically Pool.Put calls) run exactly once, and a second
// Release panics — the lifecycle tests run this under -race at several
// worker counts. Building with -tags arenadebug additionally poisons pooled
// buffers on release so reuse-after-release reads trip loudly instead of
// silently aliasing.
//
// Stats is an atomic counter sink shared by every allocator of a build; the
// facts layer feeds it into the obs registry (arena.bytes, arena.chunks,
// arena.reused, arena.released) so the allocation win is visible in
// -stats-json.
package arena

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

// Stats aggregates allocator counters. All fields are atomic so one Stats
// can be shared by every worker of a parallel build; totals are
// deterministic at any worker count because the set of allocations is.
type Stats struct {
	// Bytes counts bytes of fresh chunk/buffer capacity allocated.
	Bytes atomic.Int64
	// Chunks counts fresh chunk/buffer allocations.
	Chunks atomic.Int64
	// Reused counts buffers served from a pool instead of allocated.
	Reused atomic.Int64
	// Released counts Arena.Release calls that ran their hooks.
	Released atomic.Int64
}

// Add accumulates o's counters into st, so per-shard stats can be merged
// into one build's totals. A nil o adds nothing.
func (st *Stats) Add(o *Stats) {
	if o == nil {
		return
	}
	st.Bytes.Add(o.Bytes.Load())
	st.Chunks.Add(o.Chunks.Load())
	st.Reused.Add(o.Reused.Load())
	st.Released.Add(o.Released.Load())
}

func (st *Stats) addAlloc(bytes int) {
	if st != nil {
		st.Bytes.Add(int64(bytes))
		st.Chunks.Add(1)
	}
}

// Arena owns the scratch allocations of one translation unit and releases
// them wholesale, exactly once. The zero value is not useful; use New.
type Arena struct {
	stats    *Stats
	released atomic.Bool
	hooks    []func()
}

// New returns an arena reporting into st (which may be nil).
func New(st *Stats) *Arena {
	return &Arena{stats: st}
}

// OnRelease registers f to run when the arena is released. Hooks run in
// registration order. Registering on a released arena panics: the resource
// being registered would leak silently otherwise.
func (a *Arena) OnRelease(f func()) {
	if a.released.Load() {
		panic("arena: OnRelease after Release")
	}
	a.hooks = append(a.hooks, f)
}

// Release runs the release hooks exactly once. A second Release panics —
// double release means two owners both believed they held the arena's
// buffers, which is exactly the aliasing bug the arena exists to prevent.
func (a *Arena) Release() {
	if !a.released.CompareAndSwap(false, true) {
		panic("arena: double Release")
	}
	for _, f := range a.hooks {
		f()
	}
	a.hooks = nil
	if a.stats != nil {
		a.stats.Released.Add(1)
	}
}

// Released reports whether Release has run.
func (a *Arena) Released() bool { return a.released.Load() }

// Slab is a chunked bump allocator for values of type T. New returns
// pointers into chunks, so the pointer cost of a parse is O(chunks), not
// O(nodes). Chunks follow ChunkLen's schedule from minChunk up to
// defaultChunk values: most slabs back one small function or file, and a
// fixed full-size first chunk would be mostly slack. Pointers stay valid
// forever — chunks are never recycled — and the zero Slab is ready to use.
// A Slab is single-goroutine; share the Stats, not the Slab.
type Slab[T any] struct {
	// Stats, when set, receives the chunk allocation counters.
	Stats *Stats

	cur      []T
	poisoned bool
}

const (
	minChunk     = 4
	defaultChunk = 64
)

// ChunkLen returns the length of the chunk that follows one of length prev
// in a geometric schedule: first when there is none yet (prev == 0), then
// doubling up to limit (limit must be first times a power of two). A bump
// allocator on this schedule that has handed out k slots holds at most
// 2k+first, since every chunk but the newest is full and the newest is at
// most the size of all the full ones plus first; a large owner still pays
// O(k/limit) allocations. The window carvers in internal/cparse and
// internal/cfg share the schedule with Slab.
func ChunkLen(prev, first, limit int) int {
	if prev == 0 {
		return first
	}
	return min(2*prev, limit)
}

// New copies v into the slab and returns a stable pointer to the copy.
func (s *Slab[T]) New(v T) *T {
	if debugPoison && s.poisoned {
		panic("arena: Slab.New after release (arenadebug)")
	}
	if len(s.cur) == cap(s.cur) {
		var t T
		n := ChunkLen(cap(s.cur), minChunk, defaultChunk)
		s.cur = make([]T, 0, n)
		s.Stats.addAlloc(n * int(unsafe.Sizeof(t)))
	}
	s.cur = append(s.cur, v)
	return &s.cur[len(s.cur)-1]
}

// Poison marks the slab released for the arenadebug build: any later New
// panics. Without the tag it only drops the current chunk reference.
func (s *Slab[T]) Poison() {
	s.poisoned = true
	s.cur = nil
}

// Pool recycles []T scratch buffers with retained capacity. Get either
// serves a recycled buffer (counted as Reused) or allocates a fresh one
// (counted as Bytes/Chunks). The caller must guarantee nothing retains a
// buffer after Put — under -tags arenadebug, Put poisons the contents so a
// stale alias reads zero values instead of plausible stale data.
type Pool[T any] struct {
	// Stats, when set, receives the buffer allocation counters.
	Stats *Stats

	p sync.Pool
}

// Get returns an empty buffer with at least capHint capacity when freshly
// allocated (recycled buffers keep whatever capacity they grew to).
func (p *Pool[T]) Get(capHint int) []T {
	if v := p.p.Get(); v != nil {
		if p.Stats != nil {
			p.Stats.Reused.Add(1)
		}
		return (*(v.(*[]T)))[:0]
	}
	var t T
	p.Stats.addAlloc(capHint * int(unsafe.Sizeof(t)))
	return make([]T, 0, capHint)
}

// Put recycles buf for a later Get. Put of a nil buffer is a no-op.
func (p *Pool[T]) Put(buf []T) {
	if cap(buf) == 0 {
		return
	}
	if debugPoison {
		clear(buf[:cap(buf)])
	}
	buf = buf[:0]
	p.p.Put(&buf)
}
