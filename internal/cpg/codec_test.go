package cpg

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/bincodec"
	"repro/internal/clex"
	"repro/internal/cpp"
)

// sampleEntry exercises every field of the encoding: multi-token origin
// chains, macro variants (object-like, function-like with zero and several
// params, variadic, predefined), include closure entries with and without
// hashes, and preprocessor errors.
func sampleEntry() *frontEntry {
	pos := func(l, c int) clex.Pos { return clex.Pos{File: "drv/a.c", Line: l, Col: c} }
	return &frontEntry{
		Closure: []cpp.IncludeDep{
			{Path: "linux/kref.h", Hash: "abc123"},
			{Path: "missing.h", Hash: ""},
		},
		Tokens: []clex.Token{
			{Kind: clex.Ident, Text: "kref_get", Pos: pos(3, 1)},
			{Kind: clex.LParen, Text: "(", Pos: pos(3, 9)},
			{Kind: clex.Ident, Text: "obj", Pos: pos(3, 10), LeadingSpace: true,
				Origin: []string{"GET_OBJ", "WRAP"}},
			{Kind: clex.RParen, Text: ")", Pos: pos(3, 13), Origin: []string{"GET_OBJ", "WRAP"}},
			{Kind: clex.Semi, Text: ";", Pos: pos(3, 14)},
		},
		Macros: map[string]*cpp.Macro{
			"OBJLIKE": {Name: "OBJLIKE", DefinedAt: pos(1, 1),
				Body: []clex.Token{{Kind: clex.IntLit, Text: "1", Pos: pos(1, 17)}}},
			"ZEROP": {Name: "ZEROP", FuncLike: true, Params: []string{}, DefinedAt: pos(2, 1)},
			"WRAP": {Name: "WRAP", FuncLike: true, Params: []string{"x", "y"},
				DefinedAt: pos(2, 9),
				Body: []clex.Token{
					{Kind: clex.Ident, Text: "x", Pos: pos(2, 20)},
					{Kind: clex.Comma, Text: ",", Pos: pos(2, 21)},
					{Kind: clex.Ident, Text: "y", Pos: pos(2, 22), LeadingSpace: true},
				}},
			"VAR": {Name: "VAR", FuncLike: true, Variadic: true, Params: []string{"fmt"},
				DefinedAt: pos(4, 1)},
			"__KERNEL__": {Name: "__KERNEL__", Predefined: true},
		},
		CppErrors: []string{"a.c:9: unterminated #if"},
	}
}

func TestFrontEntryRoundTrip(t *testing.T) {
	want := sampleEntry()
	enc := encodeFrontEntry(want)
	var got frontEntry
	if err := decodeFrontEntry(enc, &got); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(*want, got) {
		t.Fatalf("round-trip mismatch:\nwant %+v\ngot  %+v", *want, got)
	}
	// Re-encoding the decoded entry must reproduce identical bytes — the
	// table construction is a deterministic function of the entry.
	if enc2 := encodeFrontEntry(&got); !bytes.Equal(enc, enc2) {
		t.Fatal("re-encode of decoded entry is not byte-identical")
	}
}

// TestFrontEntryExactSize pins the fe-v3 bytes of two fixed entries (as
// encoded before the body moved to pooled scratch) and requires each
// result to be allocated at exactly its length. The entries are encoded
// alternately, so a pooled interner or body buffer that was not reset would
// change the later encodings.
func TestFrontEntryExactSize(t *testing.T) {
	want := []struct {
		ent *frontEntry
		len int
		sum string
	}{
		{sampleEntry(), 591, "f6c5c206abbb291cf41658f63f06b8c7fbf6d211844917c5b388ae1306d4724e"},
		{&frontEntry{}, 32, "887fcec47e7d7e213ae457c7a77625d41c5767c8400eb50ed9de0ff1e4dfdb50"},
	}
	for round := 0; round < 3; round++ {
		for _, w := range want {
			enc := encodeFrontEntry(w.ent)
			if sum := fmt.Sprintf("%x", sha256.Sum256(enc)); len(enc) != w.len || sum != w.sum {
				t.Fatalf("round %d: %d bytes with sha256 %s, want %d bytes with %s", round, len(enc), sum, w.len, w.sum)
			}
			if cap(enc) != len(enc) {
				t.Fatalf("round %d: cap %d for %d bytes, want an exact-size allocation", round, cap(enc), len(enc))
			}
		}
	}
}

func TestFrontEntryCorruptInputs(t *testing.T) {
	enc := encodeFrontEntry(sampleEntry())
	// Every truncation must fail cleanly.
	for cut := 0; cut < len(enc); cut++ {
		var ent frontEntry
		if err := decodeFrontEntry(enc[:cut], &ent); !errors.Is(err, bincodec.ErrCorrupt) {
			t.Fatalf("cut=%d: err=%v, want ErrCorrupt", cut, err)
		}
	}
	// Trailing garbage is corrupt: a valid entry consumes its input exactly.
	var ent frontEntry
	long := append(bytes.Clone(enc), 0)
	if err := decodeFrontEntry(long, &ent); !errors.Is(err, bincodec.ErrCorrupt) {
		t.Fatalf("trailing byte: err=%v, want ErrCorrupt", err)
	}
}

// FuzzCacheCodec pins the codec's two contracts: arbitrary input either
// decodes cleanly or fails with bincodec.ErrCorrupt (never a panic), and
// anything that decodes re-encodes to a canonical form that is a fixed point
// — enc(dec(enc(dec(x)))) == enc(dec(x)).
func FuzzCacheCodec(f *testing.F) {
	f.Add(encodeFrontEntry(sampleEntry()))
	f.Add(encodeFrontEntry(&frontEntry{}))
	f.Add([]byte{})
	f.Add([]byte{'F', 'E', 'C', 1})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		var ent frontEntry
		if err := decodeFrontEntry(data, &ent); err != nil {
			if !errors.Is(err, bincodec.ErrCorrupt) {
				t.Fatalf("decode error %v is not ErrCorrupt", err)
			}
			return
		}
		enc := encodeFrontEntry(&ent)
		var ent2 frontEntry
		if err := decodeFrontEntry(enc, &ent2); err != nil {
			t.Fatalf("canonical form failed to decode: %v", err)
		}
		if enc2 := encodeFrontEntry(&ent2); !bytes.Equal(enc, enc2) {
			t.Fatal("canonical form is not a re-encode fixed point")
		}
	})
}
