package cpg

import (
	"errors"
	"sort"

	"repro/internal/apidb"
	"repro/internal/bincodec"
	"repro/internal/cpp"
)

// Binary codec for ShardArtifact — the payload workers stream back to the
// manager. It shares the front-entry codec's machinery: one per-artifact
// string/origin-chain table pair deduplicates spellings across every file in
// the shard (headers expand into each TU, so cross-file repetition is even
// heavier than within one entry), and tokens are the same 21-byte
// fixed-width records.
//
// Like the front-entry codec, encoding is a deterministic function of the
// artifact (macro tables walk in sorted name order, observation lists are
// already ordered), so encode∘decode is the identity on encoded bytes.
// FuzzShardArtifactCodec pins that plus the corruption contract: arbitrary
// input either decodes cleanly or fails with bincodec.ErrCorrupt, never a
// panic or huge alloc.

// saMagic identifies a shard-artifact payload; the last byte is the version.
const saMagic uint32 = 'S' | 'H'<<8 | 'A'<<16 | 1<<24

// EncodeShardArtifact serializes an artifact built with token retention
// (BuildArtifactContext with retain=true, or one that itself came out of
// DecodeShardArtifact). It panics if a file carries an AST but no retained
// token stream — such an artifact was built for in-process use and cannot be
// exported.
func EncodeShardArtifact(a *ShardArtifact) []byte {
	in := newInterner()
	nTok := 0
	for _, af := range a.Files {
		nTok += len(af.Tokens)
	}
	body := bincodec.NewWriter(64 + nTok*21)
	body.U32(uint32(len(a.Files)))
	for _, af := range a.Files {
		if af.file != nil && af.Tokens == nil {
			panic("cpg: EncodeShardArtifact on an artifact built without token retention")
		}
		encodeArtFile(body, in, af)
	}

	return in.frame(saMagic, body.Bytes())
}

func encodeArtFile(w *bincodec.Writer, in *interner, af *ArtFile) {
	w.U32(in.str(af.Path))
	encodeTokens(w, in, af.Tokens)
	names := make([]string, 0, len(af.Macros))
	for n := range af.Macros {
		names = append(names, n)
	}
	sort.Strings(names)
	w.U32(uint32(len(names)))
	for _, n := range names {
		encodeMacro(w, in, af.Macros[n])
	}
	// Only preprocessor errors travel; parse errors regenerate on reparse.
	w.U32(uint32(af.cppN))
	for _, e := range af.errs[:af.cppN] {
		w.U32(in.str(e.Error()))
	}
	encodeFileObs(w, in, &af.Obs)
}

func encodeFileObs(w *bincodec.Writer, in *interner, o *apidb.FileObs) {
	w.U32(in.str(o.Path))
	w.U32(uint32(len(o.Structs)))
	for i := range o.Structs {
		s := &o.Structs[i]
		w.U32(in.str(s.Name))
		w.U32(uint32(len(s.Fields)))
		for _, f := range s.Fields {
			w.U32(in.str(f.Base))
			w.U32(in.str(f.Struct))
		}
	}
	w.U32(uint32(len(o.Funcs)))
	for i := range o.Funcs {
		fn := &o.Funcs[i]
		w.U32(in.str(fn.Name))
		w.U32(uint32(len(fn.Params)))
		for _, p := range fn.Params {
			w.U32(in.str(p))
		}
		w.Bool(fn.RetPointer)
		w.Bool(fn.ReturnsNull)
		w.Bool(fn.ErrorCode)
		w.U32(uint32(len(fn.Calls)))
		for ci := range fn.Calls {
			c := &fn.Calls[ci]
			w.U32(in.str(c.Callee))
			w.U32(uint32(len(c.ArgBases)))
			for _, b := range c.ArgBases {
				w.U32(in.str(b))
			}
		}
		w.U32(uint32(len(fn.CounterOps)))
		for _, c := range fn.CounterOps {
			w.U32(in.str(c.Base))
			w.Bool(c.Inc)
		}
		w.U32(uint32(len(fn.TailCallees)))
		for _, t := range fn.TailCallees {
			w.U32(in.str(t))
		}
	}
	w.U32(uint32(len(o.Macros)))
	for i := range o.Macros {
		m := &o.Macros[i]
		w.U32(in.str(m.Name))
		w.Bool(m.Loop)
		if !m.Loop {
			continue
		}
		w.U32(uint32(len(m.Params)))
		for _, p := range m.Params {
			w.U32(in.str(p))
		}
		w.U32(uint32(len(m.Idents)))
		for _, id := range m.Idents {
			w.U32(in.str(id.Name))
			w.Bool(id.NextAssign)
		}
	}
}

// DecodeShardArtifact parses data into a ShardArtifact whose files carry
// token streams but no ASTs (assembly reparses them). It returns
// bincodec.ErrCorrupt on any malformed input.
func DecodeShardArtifact(data []byte) (*ShardArtifact, error) {
	r := bincodec.NewReader(data)
	if r.U32() != saMagic {
		r.Fail()
		return nil, r.Err()
	}
	dt := &decTables{strs: r.Strings()}
	nChains := r.Count()
	if r.Err() != nil {
		return nil, r.Err()
	}
	dt.chains = make([][]string, nChains)
	for i := 0; i < nChains; i++ {
		cn := r.Count()
		if cn == 0 {
			continue
		}
		ch := make([]string, cn)
		for j := range ch {
			ch[j] = dt.str(r)
		}
		dt.chains[i] = ch
	}
	if nChains == 0 || dt.chains[0] != nil {
		// Chain 0 must exist and be the empty chain.
		r.Fail()
		return nil, r.Err()
	}

	nFiles := r.Count()
	a := &ShardArtifact{}
	for i := 0; i < nFiles && r.Err() == nil; i++ {
		a.Files = append(a.Files, decodeArtFile(r, dt))
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return a, nil
}

func decodeArtFile(r *bincodec.Reader, dt *decTables) *ArtFile {
	af := &ArtFile{Path: dt.str(r)}
	af.Tokens = decodeTokens(r, dt)
	nMacros := r.Count()
	if nMacros > 0 {
		af.Macros = make(map[string]*cpp.Macro, nMacros)
	}
	for i := 0; i < nMacros; i++ {
		m := decodeMacro(r, dt)
		if r.Err() != nil {
			break
		}
		af.Macros[m.Name] = m
	}
	nErrs := r.Count()
	for i := 0; i < nErrs && r.Err() == nil; i++ {
		af.errs = append(af.errs, errors.New(dt.str(r)))
	}
	af.cppN = len(af.errs)
	af.Obs = decodeFileObs(r, dt)
	return af
}

func decodeFileObs(r *bincodec.Reader, dt *decTables) apidb.FileObs {
	o := apidb.FileObs{Path: dt.str(r)}
	nStructs := r.Count()
	for i := 0; i < nStructs && r.Err() == nil; i++ {
		s := apidb.StructObs{Name: dt.str(r)}
		nFields := r.Count()
		for j := 0; j < nFields && r.Err() == nil; j++ {
			s.Fields = append(s.Fields, apidb.FieldObs{
				Base: dt.str(r), Struct: dt.str(r),
			})
		}
		o.Structs = append(o.Structs, s)
	}
	nFuncs := r.Count()
	for i := 0; i < nFuncs && r.Err() == nil; i++ {
		fn := apidb.FuncObs{Name: dt.str(r)}
		nParams := r.Count()
		for j := 0; j < nParams; j++ {
			fn.Params = append(fn.Params, dt.str(r))
		}
		fn.RetPointer = r.Bool()
		fn.ReturnsNull = r.Bool()
		fn.ErrorCode = r.Bool()
		nCalls := r.Count()
		for j := 0; j < nCalls && r.Err() == nil; j++ {
			c := apidb.CallObs{Callee: dt.str(r)}
			nArgs := r.Count()
			for k := 0; k < nArgs; k++ {
				c.ArgBases = append(c.ArgBases, dt.str(r))
			}
			fn.Calls = append(fn.Calls, c)
		}
		nOps := r.Count()
		for j := 0; j < nOps; j++ {
			fn.CounterOps = append(fn.CounterOps, apidb.CounterOpObs{
				Base: dt.str(r), Inc: r.Bool(),
			})
		}
		nTails := r.Count()
		for j := 0; j < nTails; j++ {
			fn.TailCallees = append(fn.TailCallees, dt.str(r))
		}
		o.Funcs = append(o.Funcs, fn)
	}
	nMacros := r.Count()
	for i := 0; i < nMacros && r.Err() == nil; i++ {
		m := apidb.MacroObs{Name: dt.str(r), Loop: r.Bool()}
		if m.Loop {
			nParams := r.Count()
			for j := 0; j < nParams; j++ {
				m.Params = append(m.Params, dt.str(r))
			}
			nIdents := r.Count()
			for j := 0; j < nIdents; j++ {
				m.Idents = append(m.Idents, apidb.LoopIdentObs{
					Name: dt.str(r), NextAssign: r.Bool(),
				})
			}
		}
		o.Macros = append(o.Macros, m)
	}
	return o
}
