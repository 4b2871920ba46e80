package analysiscache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/obs"
)

// rawBytes is a decode callback that accepts any payload, so only the
// tier's own checks stand between a damaged pack and a hit.
func rawBytes(data []byte) (any, error) { return data, nil }

// TestL2HeapStaysBounded writes 64 MB through one handle and requires the
// live heap afterwards to be a small fraction of it: flushed payloads are
// released, and the index keeps only their locations.
func TestL2HeapStaysBounded(t *testing.T) {
	const entries, size = 256, 256 << 10
	const written = entries * size
	c := mustOpen(t, t.TempDir(), WithMemory(0))
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapInuse
	keys := make([]string, entries)
	for i := range keys {
		keys[i] = KeyOf("bounded", fmt.Sprint(i))
		data := make([]byte, size)
		data[0], data[size-1] = byte(i), byte(i>>8)
		if err := c.Put(keys[i], data); err != nil {
			t.Fatal(err)
		}
		if i%16 == 15 {
			if err := c.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, i := range []int{0, entries / 2, entries - 1} {
		v, ok := c.GetValue(keys[i], rawBytes)
		if d := v.([]byte); !ok || len(d) != size || d[0] != byte(i) || d[size-1] != byte(i>>8) {
			t.Fatalf("entry %d: not read back intact", i)
		}
	}
	if st := c.Stats(); st.L2Entries != entries || st.Pending != 0 {
		t.Fatalf("stats %+v, want %d indexed entries and none pending", st, entries)
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	if grown := int64(ms.HeapInuse) - int64(before); grown > written/8 {
		t.Fatalf("heap in use grew %d MB after writing %d MB; the disk tier must not keep payloads",
			grown>>20, written>>20)
	}
	runtime.KeepAlive(c)
}

// TestIndexedPackChangedIsCorruptMiss damages a pack after the writing
// handle indexed it. Each read is checked on its own — the index cannot
// know the file changed — so a flipped payload byte, a truncated pack and
// a deleted pack must each read as a miss counted as cache.read.corrupt,
// and the entry's ref is dropped so later reads are plain misses.
func TestIndexedPackChangedIsCorruptMiss(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func(path string) error
	}{
		{"flipped-byte", func(path string) error {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			data[len(data)-1] ^= 0xff // the last byte is the payload's
			return os.WriteFile(path, data, 0o644)
		}},
		{"truncated", func(path string) error {
			fi, err := os.Stat(path)
			if err != nil {
				return err
			}
			return os.Truncate(path, fi.Size()-1)
		}},
		{"deleted", os.Remove},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			reg := obs.NewRegistry()
			c := mustOpen(t, dir, WithMemory(0)).WithRegistry(reg)
			key := KeyOf("damaged", tc.name)
			if err := c.Put(key, []byte("payload under test")); err != nil {
				t.Fatal(err)
			}
			if err := c.Flush(); err != nil {
				t.Fatal(err)
			}
			if _, ok := c.GetValue(key, rawBytes); !ok {
				t.Fatal("expected a hit before the damage")
			}
			if got := reg.Counter("cache.l2.read.bytes"); got != int64(len("payload under test")) {
				t.Fatalf("cache.l2.read.bytes = %d, want the payload size", got)
			}
			packs := packFiles(t, dir)
			if len(packs) != 1 {
				t.Fatalf("expected one pack, got %v", packs)
			}
			if err := tc.damage(packs[0]); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				if _, ok := c.GetValue(key, rawBytes); ok {
					t.Fatalf("read %d: a damaged pack must be a miss", i)
				}
				if got := reg.Counter("cache.read.corrupt"); got != 1 {
					t.Fatalf("read %d: cache.read.corrupt = %d, want 1", i, got)
				}
			}
			if st := c.Stats(); st.L2Entries != 0 {
				t.Fatalf("L2Entries = %d after the ref was dropped, want 0", st.L2Entries)
			}
		})
	}
}

// TestPackStreamGolden pins the pack format: a fixed batch, queued in
// reverse order, must flush to the same bytes and name as the whole-pack
// builder that preceded the streamed writer produced for it. The 70,000-byte
// payload is larger than the write buffer, and the empty one is legal.
func TestPackStreamGolden(t *testing.T) {
	const (
		wantName = "a9d35e9efe769373cbf480125b99c9ec.pack"
		wantSum  = "a9d35e9efe769373cbf480125b99c9ec8eb3df922080f1953281d43a78e2201d"
		wantLen  = 74528
	)
	dir := t.TempDir()
	c := mustOpen(t, dir)
	sizes := []int{0, 1, 17, 4096, 70000, 300}
	for i := len(sizes) - 1; i >= 0; i-- {
		v := make([]byte, sizes[i])
		for j := range v {
			v[j] = byte(i*31 + j*7)
		}
		if err := c.Put(fmt.Sprintf("a%02d-golden", i), v); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	packs := packFiles(t, dir)
	if len(packs) != 1 || filepath.Base(packs[0]) != wantName {
		t.Fatalf("packs %v, want one named %s", packs, wantName)
	}
	data, err := os.ReadFile(packs[0])
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if len(data) != wantLen || hex.EncodeToString(sum[:]) != wantSum {
		t.Fatalf("pack is %d bytes with sha256 %x, want %d bytes with %s", len(data), sum, wantLen, wantSum)
	}
	entries, err := os.ReadDir(filepath.Dir(packs[0]))
	if err != nil || len(entries) != 1 {
		t.Fatalf("shard dir holds %v (%v), want only the pack: no temporary file may remain", entries, err)
	}
}

// TestParentFormatDirHits opens a cache directory written by the
// whole-pack writer that preceded the streamed one (testdata/parentfmt:
// six payload entries across five shards) and requires every entry to hit
// with its original value and no corruption.
func TestParentFormatDirHits(t *testing.T) {
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS("testdata/parentfmt")); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	c := mustOpen(t, dir, WithMemory(0)).WithRegistry(reg)
	for i := 0; i < 6; i++ {
		var v payload
		if !get(c, KeyOf("parent-format", fmt.Sprint(i)), &v) {
			t.Fatalf("entry %d: miss in a directory the previous writer produced", i)
		}
		if v.Name != fmt.Sprintf("entry-%d", i) || len(v.Lines) != 3 || v.Lines[2] != i*100 {
			t.Fatalf("entry %d decoded as %+v", i, v)
		}
	}
	if got := reg.Counter("cache.read.corrupt"); got != 0 {
		t.Fatalf("cache.read.corrupt = %d, want 0", got)
	}
	if st := c.Stats(); st.L2Entries != 6 {
		t.Fatalf("L2Entries = %d, want 6", st.L2Entries)
	}
}
