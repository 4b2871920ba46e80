package clex

// Lines is struct-of-arrays storage for a token stream split into logical
// lines: one flat token array plus a parallel offset array, with lines
// exposed as zero-copy views. It replaces the [][]Token shape whose
// per-line backing arrays dominated the front end's allocation profile —
// splitting an N-line buffer now costs two allocations, not N.
//
// Views returned by Line are capped at the line boundary, so a consumer
// appending to a view can never clobber the next line; consumers must still
// treat the tokens themselves as immutable (header lines are shared by
// every translation unit of a run, and macro bodies alias them).
type Lines struct {
	// Toks is the flat token array, newline tokens excluded.
	Toks []Token
	// Off holds len+1 offsets into Toks: line i is Toks[Off[i]:Off[i+1]].
	Off []int32
}

// Len returns the number of lines.
func (ln *Lines) Len() int { return len(ln.Off) - 1 }

// Line returns line i as a zero-copy, capacity-capped view into Toks.
func (ln *Lines) Line(i int) []Token {
	lo, hi := ln.Off[i], ln.Off[i+1]
	return ln.Toks[lo:hi:hi]
}

// TokenizeLines lexes src directly into line-split SoA form: token and
// offset storage are presized from the source length, and newline tokens
// mark line boundaries without ever being stored. Semantics match
// Tokenize(KeepNewlines)+line splitting exactly — empty lines are present
// (and empty), a trailing partial line is kept, a trailing newline adds no
// empty line. Stats accounting matches the Tokenize path: every lexed token
// counts, including the discarded newlines.
func TokenizeLines(file, src string, stats *Stats) (*Lines, []error) {
	ln := &Lines{
		Toks: make([]Token, 0, len(src)/6+8),
		Off:  make([]int32, 0, len(src)/32+8),
	}
	return ln, TokenizeLinesInto(file, src, stats, ln)
}

// TokenizeLinesInto is TokenizeLines writing into ln's existing storage:
// ln.Toks and ln.Off are truncated and appended to, so a caller that
// recycles them (the preprocessor pools a translation unit's own lines)
// reuses their capacity. ln holds the result, including any regrown
// buffers, when it returns.
func TokenizeLinesInto(file, src string, stats *Stats, ln *Lines) []error {
	l := New(file, src, Config{KeepNewlines: true})
	ln.Toks = ln.Toks[:0]
	ln.Off = append(ln.Off[:0], 0)
	lexed := int64(0)
	for {
		t := l.Next()
		if t.Kind == EOF {
			break
		}
		lexed++
		if t.Kind == Newline {
			ln.Off = append(ln.Off, int32(len(ln.Toks)))
			continue
		}
		ln.Toks = append(ln.Toks, t)
	}
	if int(ln.Off[len(ln.Off)-1]) != len(ln.Toks) {
		ln.Off = append(ln.Off, int32(len(ln.Toks)))
	}
	if stats != nil {
		stats.Tokens.Add(lexed)
		stats.Errors.Add(int64(len(l.errs)))
	}
	return l.errs
}
