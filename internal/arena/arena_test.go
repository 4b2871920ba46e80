package arena

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestArenaReleaseExactlyOnce drives many arenas through concurrent workers
// (run under -race by the tier-1 suite): every arena's hooks run exactly
// once, and the Released counter matches the arena count at any worker
// count.
func TestArenaReleaseExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 8} {
		st := &Stats{}
		const arenas = 64
		var ran atomic.Int64
		jobs := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range jobs {
					a := New(st)
					a.OnRelease(func() { ran.Add(1) })
					a.OnRelease(func() { ran.Add(1) })
					a.Release()
					if !a.Released() {
						t.Error("Released() false after Release")
					}
				}
			}()
		}
		for i := 0; i < arenas; i++ {
			jobs <- i
		}
		close(jobs)
		wg.Wait()
		if got := ran.Load(); got != 2*arenas {
			t.Errorf("workers=%d: %d hook runs, want %d", workers, got, 2*arenas)
		}
		if got := st.Released.Load(); got != arenas {
			t.Errorf("workers=%d: Released=%d, want %d", workers, got, arenas)
		}
	}
}

func TestArenaDoubleReleasePanics(t *testing.T) {
	a := New(nil)
	a.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("second Release did not panic")
		}
	}()
	a.Release()
}

func TestArenaOnReleaseAfterReleasePanics(t *testing.T) {
	a := New(nil)
	a.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("OnRelease after Release did not panic")
		}
	}()
	a.OnRelease(func() {})
}

// TestSlabAllocationIsPerChunk is the TestNopZeroAllocation analog for the
// arena fast path: allocating N nodes must cost O(N/chunk) heap
// allocations, not O(N). 640 nodes take the geometric ramp 4+8+16+32 (60
// slots) and then ten full 64-slot chunks: 14 chunks.
func TestSlabAllocationIsPerChunk(t *testing.T) {
	type node struct{ a, b, c int }
	const n = 10 * defaultChunk
	const chunks = 4 + 10
	st := &Stats{}
	s := &Slab[node]{Stats: st}
	for i := 0; i < n; i++ {
		s.New(node{a: i})
	}
	if got := st.Chunks.Load(); got != chunks {
		t.Errorf("Chunks=%d for %d nodes, want %d", got, n, chunks)
	}
	allocs := testing.AllocsPerRun(10, func() {
		s = &Slab[node]{}
		for i := 0; i < n; i++ {
			s.New(node{a: i})
		}
	})
	// One allocation per chunk plus the slab itself, with slack for the
	// runtime; far below one alloc per node.
	if allocs > chunks+4 {
		t.Errorf("slab cost %.0f allocs for %d nodes; want ~%d (per chunk)", allocs, n, chunks)
	}
}

func TestSlabPointerStabilityAndStats(t *testing.T) {
	st := &Stats{}
	s := &Slab[int]{Stats: st}
	var ptrs []*int
	for i := 0; i < 3*defaultChunk; i++ {
		ptrs = append(ptrs, s.New(i))
	}
	for i, p := range ptrs {
		if *p != i {
			t.Fatalf("slab value %d = %d after later allocations", i, *p)
		}
	}
	// 192 ints: 4+8+16+32 (60 slots), then three 64-slot chunks (252).
	if got := st.Chunks.Load(); got != 7 {
		t.Errorf("Chunks=%d, want 7", got)
	}
	if got, want := st.Bytes.Load(), int64(252*8); got != want {
		t.Errorf("Bytes=%d, want %d", got, want)
	}
}

// TestSlabSlackBound pins what the geometric schedule buys: a slab holding
// k nodes has at most 2k+4 slots, so a small owner (one short function's
// CFG, one small file's AST) no longer pays for a whole 64-slot chunk.
func TestSlabSlackBound(t *testing.T) {
	for k := 0; k <= 20*defaultChunk; k++ {
		st := &Stats{}
		s := &Slab[int64]{Stats: st}
		for i := 0; i < k; i++ {
			s.New(int64(i))
		}
		if slots := st.Bytes.Load() / 8; slots > int64(2*k+minChunk) {
			t.Fatalf("k=%d: %d slots, want <= 2k+4 = %d", k, slots, 2*k+minChunk)
		}
	}
}

// TestChunkLenSchedule pins the shared schedule the window carvers use.
func TestChunkLenSchedule(t *testing.T) {
	var got []int
	for n := 0; len(got) < 7; {
		n = ChunkLen(n, 16, 256)
		got = append(got, n)
	}
	want := []int{16, 32, 64, 128, 256, 256, 256}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("schedule = %v, want %v", got, want)
		}
	}
}

func TestPoolReuse(t *testing.T) {
	st := &Stats{}
	p := &Pool[byte]{Stats: st}
	b := p.Get(128)
	if cap(b) < 128 {
		t.Fatalf("fresh buffer cap %d < hint", cap(b))
	}
	// Under the race detector sync.Pool intentionally drops items at
	// random, so a single Put/Get round trip is not guaranteed to recycle.
	// Retry until a reuse is observed; each round's recycled buffer must
	// come back empty either way.
	for i := 0; i < 100 && st.Reused.Load() == 0; i++ {
		b = append(b[:0], 1, 2, 3)
		p.Put(b)
		b = p.Get(8)
		if len(b) != 0 {
			t.Fatalf("recycled buffer has len %d", len(b))
		}
	}
	if st.Reused.Load() == 0 {
		t.Error("Reused counter did not advance on recycled Get")
	}
}
