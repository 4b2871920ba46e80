package analysiscache

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arena"
)

// packMagic heads every pack file; the trailing digit is the pack format
// version. The file name is the first 32 hex chars of the sha256 of the
// whole file (magic included), so integrity and identity are one check.
const packMagic = "rcpk1\n"

// packNameLen is 32 hash chars + ".pack".
const (
	packHashLen = 32
	packExt     = ".pack"
)

// castagnoli is the CRC-32C table behind each index ref's payload checksum.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// l2Tier is the disk tier: 16 single-hex-char shard directories of pack
// files plus, per shard, a pending write batch and a lazily built index
// that locates every entry of every valid pack on disk. The index holds no
// payload bytes: a lookup reads its one entry from the pack and checks it
// against the CRC taken when the pack was verified or written, so memory
// tracks the number of entries, not their size.
type l2Tier struct {
	dir string

	// dirs remembers which shard directories are known to exist so a flush
	// pays the mkdir probe at most once per shard per process. A stale bit
	// (the cache dir was deleted mid-run) is cleared and re-probed by the
	// flush path's ErrNotExist fallback, so bits are an optimization, never
	// a correctness input.
	dirs atomic.Uint32

	shards [numShards]l2Shard
}

type l2Shard struct {
	n  int // shard number; names the directory
	mu sync.Mutex

	// pending is the write batch: queued by put, cleared by flush. Reads
	// consult it first so a process always sees its own writes.
	pending      map[string][]byte
	pendingBytes int64
	dirtySince   time.Time

	// index locates every entry of every valid pack seen so far: built
	// from the shard directory on the shard's first read (each pack
	// SHA-256-verified, then its bytes dropped), extended on every
	// successful flush. packNames holds each indexed pack's file name once,
	// at the position its refs name; packIDs inverts it.
	index     map[string]entryRef
	packNames []string
	packIDs   map[string]uint32
	loaded    bool
}

// entryRef locates one payload: which pack of the shard, where in it, and
// the CRC-32C of its bytes as they were when the pack was verified.
type entryRef struct {
	off  int64
	pack uint32
	len  uint32
	crc  uint32
}

func newL2Tier(dir string) *l2Tier {
	t := &l2Tier{dir: dir}
	for i := range t.shards {
		t.shards[i].n = i
	}
	return t
}

func (t *l2Tier) shardDir(n int) string {
	return filepath.Join(t.dir, string("0123456789abcdef"[n]))
}

// lookup returns the payload for key from the pending batch or, through the
// index, from its pack on disk, building the shard's index on first use.
// read is the number of bytes read from disk. corrupt counts packs
// discarded while building the index plus an indexed entry that failed its
// read: a pack deleted, truncated or rewritten underneath the index, or a
// payload whose CRC no longer matches. Such an entry's ref is dropped, so
// it stays a plain miss until stored again.
func (t *l2Tier) lookup(key string) (data []byte, read, corrupt int, ok bool) {
	s := &t.shards[shardOf(key)]
	s.mu.Lock()
	if d, ok := s.pending[key]; ok {
		s.mu.Unlock()
		return d, 0, 0, true
	}
	corrupt = t.ensureLoaded(s)
	ref, ok := s.index[key]
	var path string
	if ok {
		path = filepath.Join(t.shardDir(s.n), s.packNames[ref.pack])
	}
	s.mu.Unlock()
	if !ok {
		return nil, 0, corrupt, false
	}
	data, err := readEntry(path, ref)
	if err != nil {
		s.mu.Lock()
		if s.index[key] == ref {
			delete(s.index, key)
		}
		s.mu.Unlock()
		return nil, 0, corrupt + 1, false
	}
	return data, len(data), corrupt, true
}

var errEntryCRC = errors.New("analysiscache: entry checksum mismatch")

// readEntry reads one indexed payload into fresh storage and checks its CRC.
// The pack is opened per read and closed before returning, so the tier
// holds no file descriptors between lookups.
func readEntry(path string, ref entryRef) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	data := make([]byte, ref.len)
	_, err = f.ReadAt(data, ref.off)
	f.Close()
	if err != nil {
		return nil, err
	}
	if crc32.Checksum(data, castagnoli) != ref.crc {
		return nil, errEntryCRC
	}
	return data, nil
}

// ensureLoaded indexes every valid pack in the shard directory once per
// handle. Each pack is read whole into one reused buffer and SHA-256-checked
// against its name before any of its entries is indexed. Packs this handle
// flushed are indexed already and are not read again. Caller holds s.mu.
func (t *l2Tier) ensureLoaded(s *l2Shard) (corrupt int) {
	if s.loaded {
		return 0
	}
	s.loaded = true
	dir := t.shardDir(s.n)
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0 // no shard dir yet: nothing stored, nothing corrupt
	}
	// ReadDir returns sorted names, so duplicate keys across packs resolve
	// deterministically (identical bytes anyway: keys are content hashes).
	buf := packBufs.Get(0)
	defer func() { packBufs.Put(buf) }()
	for _, de := range ents {
		name := de.Name()
		if !strings.HasSuffix(name, packExt) || len(name) != packHashLen+len(packExt) {
			continue
		}
		if _, known := s.packIDs[name]; known {
			continue
		}
		buf, err = readFileInto(filepath.Join(dir, name), buf)
		if err != nil {
			corrupt++
			continue
		}
		sum := sha256.Sum256(buf)
		if hex.EncodeToString(sum[:])[:packHashLen] != name[:packHashLen] {
			// Torn write or bit rot: the whole pack is untrusted. Every
			// entry it held degrades to a miss.
			corrupt++
			continue
		}
		// A structural failure (possible only through format drift, since
		// the hash already matched) rejects the whole pack without touching
		// the index, so the pack is walked once to check and once to index.
		if !walkPack(buf, nil) {
			corrupt++
			continue
		}
		id := s.addPack(name)
		walkPack(buf, func(key []byte, off int, val []byte) {
			s.index[string(key)] = entryRef{
				off:  int64(off),
				pack: id,
				len:  uint32(len(val)),
				crc:  crc32.Checksum(val, castagnoli),
			}
		})
	}
	return corrupt
}

// packBufs recycles the buffer packs are verified in, so indexing every
// shard of a cache costs one buffer the size of the largest pack.
var packBufs arena.Pool[byte]

// readFileInto reads the file at path into buf, growing it as needed.
func readFileInto(path string, buf []byte) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return buf, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return buf, err
	}
	n := int(fi.Size())
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	_, err = io.ReadFull(f, buf)
	return buf, err
}

// addPack registers a pack file name with the shard and returns its id,
// creating the index on first use. Caller holds s.mu.
func (s *l2Shard) addPack(name string) uint32 {
	if id, ok := s.packIDs[name]; ok {
		return id
	}
	if s.index == nil {
		s.index = make(map[string]entryRef)
		s.packIDs = make(map[string]uint32)
	}
	id := uint32(len(s.packNames))
	s.packNames = append(s.packNames, name)
	s.packIDs[name] = id
	return id
}

// put queues one entry and reports the shard to flush inline when its batch
// crossed the size threshold or has been dirty past the flush interval
// (nil otherwise). The data slice is retained until flushed.
func (t *l2Tier) put(key string, data []byte) *l2Shard {
	s := &t.shards[shardOf(key)]
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.pending[key]; !dup {
		if s.pending == nil {
			s.pending = make(map[string][]byte)
		}
		if len(s.pending) == 0 {
			s.dirtySince = now
		}
		s.pending[key] = data
		s.pendingBytes += int64(len(data))
	}
	if s.pendingBytes >= flushBytes || now.Sub(s.dirtySince) >= flushInterval {
		return s
	}
	return nil
}

// flushResult is one shard flush's accounting: packs/entries written, or
// entries dropped with the error that dropped them.
type flushResult struct {
	packs   int
	entries int
	dropped int
	err     error
}

// flushShard writes the shard's pending batch as one pack file. Entries are
// packed in sorted key order, so a given batch always produces identical
// bytes — and therefore an identical file name — no matter which worker
// queued what first; concurrent identical flushes converge on one file. The
// batch is streamed twice, through SHA-256 for the name and then into the
// file, so no copy of the whole pack is ever built. On a write failure the
// batch is dropped: the entries become misses, which is the cache's one
// failure mode. On success the batch's payloads are released and the index
// records where each now lies.
func (t *l2Tier) flushShard(s *l2Shard) flushResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.pending)
	if n == 0 {
		return flushResult{}
	}
	keys := make([]string, 0, n)
	for k := range s.pending {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	writePack(h, keys, s.pending)
	name := hex.EncodeToString(h.Sum(nil))[:packHashLen] + packExt
	err := t.writePackFile(s.n, name, keys, s.pending)

	pending := s.pending
	s.pending = nil
	s.pendingBytes = 0
	s.dirtySince = time.Time{}
	if err != nil {
		return flushResult{dropped: n, err: err}
	}
	id := s.addPack(name)
	off := len(packMagic)
	for _, k := range keys {
		v := pending[k]
		off += 8 + len(k)
		s.index[k] = entryRef{
			off:  int64(off),
			pack: id,
			len:  uint32(len(v)),
			crc:  crc32.Checksum(v, castagnoli),
		}
		off += len(v)
	}
	return flushResult{packs: 1, entries: n}
}

// packWriters recycles the buffered writers flushes stream packs through.
var packWriters = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, 64<<10) }}

// tmpSeq makes each in-flight pack's temporary name unique in the process.
var tmpSeq atomic.Uint64

// writePackFile streams one batch into the shard directory as pack file name.
// The bytes go to a temporary file that is renamed into place, so a reader
// never sees a half-written pack under its final name, not even while a
// concurrent flush of an identical batch replaces it. The shard directory
// is negotiated through the dirs bitmap: probe with mkdir only on the first
// write per shard, and when the directory vanished underneath a set bit
// (ErrNotExist on a shard the bitmap swears exists), clear the stale bit,
// recreate, and retry once.
func (t *l2Tier) writePackFile(shard int, name string, keys []string, pending map[string][]byte) error {
	dir := t.shardDir(shard)
	bit := uint32(1) << shard
	if t.dirs.Load()&bit == 0 {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		t.dirs.Or(bit)
	}
	tmp := filepath.Join(dir, fmt.Sprintf("%s.%d-%d.tmp", name, os.Getpid(), tmpSeq.Add(1)))
	create := func() (*os.File, error) { return os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644) }
	f, err := create()
	if errors.Is(err, fs.ErrNotExist) {
		t.dirs.And(^bit)
		if err = os.MkdirAll(dir, 0o755); err == nil {
			t.dirs.Or(bit)
			f, err = create()
		}
	}
	if err != nil {
		return err
	}
	bw := packWriters.Get().(*bufio.Writer)
	bw.Reset(f)
	writePack(bw, keys, pending)
	err = bw.Flush()
	bw.Reset(nil)
	packWriters.Put(bw)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, filepath.Join(dir, name))
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

func (t *l2Tier) pendingEntries() int64 {
	var n int64
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		n += int64(len(s.pending))
		s.mu.Unlock()
	}
	return n
}

// indexEntries counts the entries the index can locate on disk.
func (t *l2Tier) indexEntries() int64 {
	var n int64
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		n += int64(len(s.index))
		s.mu.Unlock()
	}
	return n
}

// writePack serializes the batch into w: magic, then per entry a
// length-prefixed key and payload. No per-entry checksum — the file name
// commits to the hash of the whole pack. w must latch its own errors (a
// hash never fails; bufio.Writer reports the first failure from Flush).
func writePack(w io.Writer, keys []string, pending map[string][]byte) {
	io.WriteString(w, packMagic)
	var u [4]byte
	for _, k := range keys {
		v := pending[k]
		binary.LittleEndian.PutUint32(u[:], uint32(len(k)))
		w.Write(u[:])
		io.WriteString(w, k)
		binary.LittleEndian.PutUint32(u[:], uint32(len(v)))
		w.Write(u[:])
		w.Write(v)
	}
}

// walkPack checks a hash-verified pack's structure and, when fn is set,
// calls it with each entry's key, payload offset and payload (both aliasing
// data). It reports false for a malformed pack; fn may then have seen a
// prefix of its entries.
func walkPack(data []byte, fn func(key []byte, off int, val []byte)) bool {
	if len(data) < len(packMagic) || string(data[:len(packMagic)]) != packMagic {
		return false
	}
	off := len(packMagic)
	for off < len(data) {
		if off+4 > len(data) {
			return false
		}
		klen := int(binary.LittleEndian.Uint32(data[off:]))
		off += 4
		if klen <= 0 || off+klen > len(data) {
			return false
		}
		key := data[off : off+klen]
		off += klen
		if off+4 > len(data) {
			return false
		}
		vlen := int(binary.LittleEndian.Uint32(data[off:]))
		off += 4
		if vlen < 0 || off+vlen > len(data) {
			return false
		}
		if fn != nil {
			fn(key, off, data[off:off+vlen])
		}
		off += vlen
	}
	return true
}
