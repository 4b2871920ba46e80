package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"strings"
	"testing"

	"repro/internal/cpg"
)

// TestUnitKeyMatchesConcatenatedCorpus pins the unit cache key to a
// reference fingerprint: the SHA-256 of the whole corpus written out as one
// byte string (sources, then headers, each sorted by path, every path and
// content preceded by its little-endian 64-bit length). The 100 KB source
// spans several of corpusFP's hash chunks, so a chunk boundary that drops
// or repeats bytes changes the key.
func TestUnitKeyMatchesConcatenatedCorpus(t *testing.T) {
	sources := []cpg.Source{
		{Path: "drivers/z.c", Content: strings.Repeat("int z(void) { return 0; }\n", 4000)},
		{Path: "drivers/a.c", Content: "void a(void) {}\n"},
		{Path: "drivers/empty.c", Content: ""},
	}
	headers := map[string]string{
		"include/linux/kref.h": "struct kref { int refcount; };\n",
		"include/b.h":          "#define B 1\n",
	}
	var ref bytes.Buffer
	put := func(s string) {
		ref.Write(binary.LittleEndian.AppendUint64(nil, uint64(len(s))))
		ref.WriteString(s)
	}
	for _, i := range []int{1, 2, 0} {
		put(sources[i].Path)
		put(sources[i].Content)
	}
	for _, p := range []string{"include/b.h", "include/linux/kref.h"} {
		put(p)
		put(headers[p])
	}
	sum := sha256.Sum256(ref.Bytes())
	want := unitCacheKey("cfg", "checkers", hex.EncodeToString(sum[:]))
	if got := unitCacheKey("cfg", "checkers", corpusFP(sources, headers)); got != want {
		t.Fatalf("unit key %s, want %s from the concatenated corpus", got, want)
	}
}
