// Package bincodec provides the hand-rolled binary encoding primitives the
// analysis cache entries are built from: little-endian fixed-width fields
// with length-prefixed variable data, written by an append-only Writer and
// read by a sticky-error Reader.
//
// The codec replaces encoding/gob on the cache hot path. gob decodes
// through reflection and re-transmits type descriptors per stream; a warm
// run spends most of its time there. The fixed-offset encoding here decodes
// with straight-line field reads and no reflection, and the Reader's
// sticky-error design keeps per-field code branch-free: decode functions
// read every field unconditionally and check Err once at the end.
//
// Robustness contract (enforced by the FuzzCacheCodec target): any
// truncated, bit-flipped, or otherwise malformed input must surface as
// ErrCorrupt from Err/Done — never a panic, never a huge allocation. Count
// reads are bounded by the remaining input length before any allocation
// happens, so a flipped length byte cannot demand gigabytes.
package bincodec

import (
	"encoding/binary"
	"errors"
)

// ErrCorrupt is returned by Reader.Err/Done for any malformed input. The
// analysis cache maps it to a counted miss.
var ErrCorrupt = errors.New("bincodec: corrupt data")

// Writer accumulates an encoded entry. The zero value is ready to use.
type Writer struct {
	b []byte
}

// NewWriter returns a writer with capHint bytes of initial capacity.
func NewWriter(capHint int) *Writer {
	return &Writer{b: make([]byte, 0, capHint)}
}

// NewWriterOn returns a writer that appends to buf[:0], reusing its
// capacity (pooled scratch); Bytes then aliases that storage.
func NewWriterOn(buf []byte) *Writer {
	return &Writer{b: buf[:0]}
}

// Bytes returns the encoded form (aliases the writer's buffer).
func (w *Writer) Bytes() []byte { return w.b }

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.b) }

// U8 writes one byte.
func (w *Writer) U8(v uint8) { w.b = append(w.b, v) }

// Bool writes a bool as one byte (0 or 1).
func (w *Writer) Bool(v bool) {
	if v {
		w.b = append(w.b, 1)
	} else {
		w.b = append(w.b, 0)
	}
}

// U32 writes a fixed-width little-endian uint32.
func (w *Writer) U32(v uint32) { w.b = binary.LittleEndian.AppendUint32(w.b, v) }

// U64 writes a fixed-width little-endian uint64.
func (w *Writer) U64(v uint64) { w.b = binary.LittleEndian.AppendUint64(w.b, v) }

// Int writes an int as its two's-complement 64-bit image.
func (w *Writer) Int(v int) { w.U64(uint64(v)) }

// Raw appends pre-encoded bytes verbatim (no length prefix) — used to join
// independently built sections (e.g. a body encoded before its string table).
func (w *Writer) Raw(b []byte) { w.b = append(w.b, b...) }

// String writes a length-prefixed string.
func (w *Writer) String(s string) {
	w.U32(uint32(len(s)))
	w.b = append(w.b, s...)
}

// Strings writes a count-prefixed string slice.
func (w *Writer) Strings(ss []string) {
	w.U32(uint32(len(ss)))
	for _, s := range ss {
		w.String(s)
	}
}

// Reader decodes an entry produced by Writer. Any out-of-bounds read flips
// the sticky error; subsequent reads return zero values, so decoders can
// read every field linearly and check Err once.
type Reader struct {
	b   []byte
	off int
	bad bool

	// interned caches strings decoded via InternString so repeated payload
	// values (object keys, file paths, API names) share one backing string.
	interned map[string]string
}

// NewReader returns a reader over b (which is aliased, not copied; decoded
// strings are copied out so they never alias b).
func NewReader(b []byte) *Reader { return &Reader{b: b} }

func (r *Reader) fail() {
	r.bad = true
}

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.b) - r.off }

// Fail marks the input corrupt. Decoders call it when a structurally valid
// field carries a semantically impossible value (an enum out of range, a
// version tag from the future), folding domain validation into the same
// sticky-error path as framing errors.
func (r *Reader) Fail() { r.fail() }

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if r.bad || r.off+1 > len(r.b) {
		r.fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

// Bool reads a bool; any byte other than 0 or 1 is corrupt.
func (r *Reader) Bool() bool {
	switch r.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail()
		return false
	}
}

// U32 reads a fixed-width little-endian uint32.
func (r *Reader) U32() uint32 {
	if r.bad || r.off+4 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

// U64 reads a fixed-width little-endian uint64.
func (r *Reader) U64() uint64 {
	if r.bad || r.off+8 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

// Int reads an int written by Writer.Int.
func (r *Reader) Int() int { return int(r.U64()) }

// Count reads an element count and validates it against the remaining
// input: every encoded element occupies at least one byte, so a count
// exceeding Remaining is corrupt. This bounds slice preallocation on
// malformed input.
func (r *Reader) Count() int {
	n := int(r.U32())
	if n < 0 || n > r.Remaining() {
		r.fail()
		return 0
	}
	return n
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.Count()
	if r.bad || n == 0 {
		return ""
	}
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s
}

// InternString reads a length-prefixed string like String, but deduplicates
// the result against every string this reader previously interned. Decoders
// use it for fields whose values repeat heavily across records (event object
// keys, positions' file names); the returned string never aliases the input
// buffer.
func (r *Reader) InternString() string {
	n := r.Count()
	if r.bad || n == 0 {
		return ""
	}
	view := r.b[r.off : r.off+n]
	r.off += n
	if s, ok := r.interned[string(view)]; ok {
		return s
	}
	s := string(view)
	if r.interned == nil {
		r.interned = make(map[string]string, 16)
	}
	r.interned[s] = s
	return s
}

// Strings reads a count-prefixed string slice, returning nil for an empty
// one (matching the "empty and absent are indistinguishable" convention of
// the cached structures).
func (r *Reader) Strings() []string {
	n := r.Count()
	if r.bad || n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.String()
	}
	if r.bad {
		return nil
	}
	return out
}

// Err returns ErrCorrupt if any read failed.
func (r *Reader) Err() error {
	if r.bad {
		return ErrCorrupt
	}
	return nil
}

// Done returns ErrCorrupt if any read failed or input remains — a valid
// entry is consumed exactly.
func (r *Reader) Done() error {
	if r.bad || r.off != len(r.b) {
		return ErrCorrupt
	}
	return nil
}
