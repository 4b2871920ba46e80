package analysiscache

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// sameShardKeys returns n distinct full-length keys that all land in one L1
// shard, so byte-pressure tests control exactly one budget.
func sameShardKeys(n int) []string {
	out := make([]string, 0, n)
	for i := 0; len(out) < n; i++ {
		k := KeyOf("shard-key", fmt.Sprint(i))
		if shardOf(k) == 0 {
			out = append(out, k)
		}
	}
	return out
}

// TestL1EvictionUnderBytePressure fills one shard past its byte budget and
// checks LRU order: the least recently used entries leave first, the
// recently touched survive, and the byte charge tracks what remains.
func TestL1EvictionUnderBytePressure(t *testing.T) {
	// 16 shards share the budget evenly: 1600 total → 100 per shard.
	l1 := newL1Cache(1600, 0)
	keys := sameShardKeys(4)

	// Three 30-byte entries fit in 90/100.
	for _, k := range keys[:3] {
		if ev := l1.put(k, k, 30); ev != 0 {
			t.Fatalf("no eviction expected while under budget, got %d", ev)
		}
	}
	// Touch keys[0] so keys[1] is now the LRU victim.
	if _, ok, _ := l1.get(keys[0]); !ok {
		t.Fatal("expected hit for resident entry")
	}
	// A fourth 30-byte entry pushes the shard to 120 → one eviction.
	if ev := l1.put(keys[3], keys[3], 30); ev != 1 {
		t.Fatalf("expected exactly one eviction, got %d", ev)
	}
	if _, ok, _ := l1.get(keys[1]); ok {
		t.Fatal("LRU entry must have been evicted")
	}
	for _, k := range []string{keys[0], keys[2], keys[3]} {
		if _, ok, _ := l1.get(k); !ok {
			t.Fatalf("recently used entry %s… must survive", k[:8])
		}
	}
	if entries, bytes := l1.stats(); entries != 3 || bytes != 90 {
		t.Fatalf("stats after eviction: entries=%d bytes=%d, want 3/90", entries, bytes)
	}

	// An entry larger than the whole shard budget is never admitted (it
	// would evict everything for a value that cannot stay).
	if ev := l1.put(keys[1], keys[1], 101); ev != 0 {
		t.Fatalf("oversized entry must be rejected without evictions, got %d", ev)
	}
	if _, ok, _ := l1.get(keys[1]); ok {
		t.Fatal("oversized entry must not be cached")
	}
}

// TestL1TTLExpiry checks that entries die on access after their TTL and are
// counted as evictions, not plain misses.
func TestL1TTLExpiry(t *testing.T) {
	l1 := newL1Cache(1<<20, 30*time.Millisecond)
	key := KeyOf("ttl")
	l1.put(key, "v", 8)
	if _, ok, _ := l1.get(key); !ok {
		t.Fatal("expected hit before TTL")
	}
	time.Sleep(50 * time.Millisecond)
	v, ok, evicted := l1.get(key)
	if ok || v != nil {
		t.Fatal("expected expiry after TTL")
	}
	if evicted != 1 {
		t.Fatalf("expiry must count as one eviction, got %d", evicted)
	}
	if entries, bytes := l1.stats(); entries != 0 || bytes != 0 {
		t.Fatalf("expired entry must release its charge, got entries=%d bytes=%d", entries, bytes)
	}
}

// TestGetValueTiered walks one entry through the tiers: PutValue serves
// from L1, a fresh handle decodes from disk and re-fills its own L1, and
// the counters tell the two paths apart.
func TestGetValueTiered(t *testing.T) {
	dir := t.TempDir()
	decode := decodePayload

	reg := obs.NewRegistry()
	c := mustOpen(t, dir).WithRegistry(reg)
	key := KeyOf("tiered")
	want := &payload{Name: "v", Lines: []int{7}}
	if err := c.PutValue(key, want, want.encode()); err != nil {
		t.Fatal(err)
	}
	if got, n := reg.Counter("cache.write.bytes"), int64(len(want.encode())); reg.Counter("cache.write") != 1 || got != n {
		t.Fatalf("PutValue charged write=%d write.bytes=%d, want 1 and %d", reg.Counter("cache.write"), got, n)
	}
	v, ok := c.GetValue(key, decode)
	if !ok || v.(*payload) != want {
		t.Fatal("same-handle GetValue must return the exact L1 value")
	}
	if reg.Counter("cache.l1.hit") != 1 || reg.Counter("cache.read.hit") != 0 {
		t.Fatalf("L1 hit must not touch the disk tier: l1.hit=%d read.hit=%d",
			reg.Counter("cache.l1.hit"), reg.Counter("cache.read.hit"))
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}

	reg2 := obs.NewRegistry()
	c2 := mustOpen(t, dir).WithRegistry(reg2)
	v, ok = c2.GetValue(key, decode)
	if !ok || v.(*payload).Name != "v" {
		t.Fatal("fresh handle must decode the entry from disk")
	}
	if reg2.Counter("cache.l1.miss") != 1 || reg2.Counter("cache.read.hit") != 1 {
		t.Fatalf("disk path counters wrong: l1.miss=%d read.hit=%d",
			reg2.Counter("cache.l1.miss"), reg2.Counter("cache.read.hit"))
	}
	// The disk hit seeded L1: the next lookup stays in memory.
	if _, ok = c2.GetValue(key, decode); !ok || reg2.Counter("cache.l1.hit") != 1 {
		t.Fatalf("second lookup must hit L1, l1.hit=%d", reg2.Counter("cache.l1.hit"))
	}

	// With the memory tier disabled, GetValue decodes every time.
	reg3 := obs.NewRegistry()
	c3 := mustOpen(t, dir, WithMemory(0)).WithRegistry(reg3)
	for i := 0; i < 2; i++ {
		if _, ok := c3.GetValue(key, decode); !ok {
			t.Fatal("L1-disabled GetValue must still serve from disk")
		}
	}
	if reg3.Counter("cache.read.hit") != 2 || reg3.Counter("cache.l1.hit") != 0 {
		t.Fatalf("L1-disabled counters wrong: read.hit=%d l1.hit=%d",
			reg3.Counter("cache.read.hit"), reg3.Counter("cache.l1.hit"))
	}
	if st := c3.Stats(); st.L1Entries != 0 {
		t.Fatalf("WithMemory(0) must disable L1, yet it holds %d entries", st.L1Entries)
	}
}

// TestConcurrentSameKeyValueOps hammers a small key set with concurrent
// GetValue/PutValue at 1 and 8 workers (the -race run is the real assert),
// under byte pressure so eviction paths race too.
func TestConcurrentSameKeyValueOps(t *testing.T) {
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			dir := t.TempDir()
			c := mustOpen(t, dir, WithMemory(4096))
			keys := make([]string, 8)
			vals := make([]*payload, len(keys))
			for i := range keys {
				keys[i] = KeyOf("conc", fmt.Sprint(i))
				vals[i] = &payload{Name: fmt.Sprintf("v-%d", i), Lines: []int{i, i}}
			}
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for r := 0; r < 200; r++ {
						k := (w + r) % len(keys)
						if r%3 == 0 {
							if err := c.PutValue(keys[k], vals[k], vals[k].encode()); err != nil {
								t.Errorf("PutValue: %v", err)
								return
							}
						}
						if v, ok := c.GetValue(keys[k], decodePayload); ok {
							if got := v.(*payload).Name; got != vals[k].Name {
								t.Errorf("key %d decoded %q, want %q", k, got, vals[k].Name)
								return
							}
						}
						if r%50 == 0 {
							_ = c.Flush()
						}
					}
				}(w)
			}
			wg.Wait()
			if err := c.Flush(); err != nil {
				t.Fatal(err)
			}
			// Every key must be durable and coherent afterwards: a fresh
			// handle with L1 off decodes each one from disk.
			fresh := mustOpen(t, dir, WithMemory(0))
			for i, k := range keys {
				var v payload
				if !get(fresh, k, &v) || v.Name != vals[i].Name {
					t.Fatalf("key %d not durable after the storm", i)
				}
			}
		})
	}
}
