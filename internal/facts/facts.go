// Package facts is the shared analysis-facts layer between the code property
// graph and the anti-pattern checkers.
//
// The nine checkers in internal/core all consume the same underlying facts —
// per-function refcount event traces, acyclic path enumerations, escape/store
// sets, and apidb classifications of call sites — but historically each
// re-derived them with a private CPG walk. This package computes them exactly
// once per function (UnitFacts memoizes with sync.Once, so the parallel
// engine gets exactly-once semantics at any worker count) and hands the same
// immutable FunctionFacts value to every checker.
//
// The function's CFG is a transient of that one computation: UnitFacts
// builds it inside the memo, derives Data, and drops it, so its slab chunks
// die with the computation instead of living as long as the unit. The
// extracted event array is the one thing kept, as Data.All. Data is
// therefore fully self-contained: CFG block pointers are stripped and
// branch directions and error-block reachability are resolved at compute
// time, so no consumer needs the CFG to read it. Checkers must treat every slice and map reachable from
// FunctionFacts as read-only.
package facts

import (
	"sync"
	"sync/atomic"

	"repro/internal/cast"
	"repro/internal/cfg"
	"repro/internal/cpg"
	"repro/internal/obs"
	"repro/internal/semantics"
)

// Branch direction of an event along one concrete path (Trace.Branch).
const (
	TookUnknown int8 = iota // path ends at the block, or no successors
	TookTrue
	TookFalse
)

// Trace is one acyclic path's normalized event stream: the path's events in
// block order with every path-dependent question — which branch was taken,
// whether error handling lies ahead — pre-resolved, so no consumer needs the
// CFG blocks themselves. A trace is a view: it names its events by index
// into the function's Data.All, which stores each event once however many
// paths cross its block.
type Trace struct {
	// Idx holds the path's events in block order as indexes into Data.All.
	// Indexes and positions are bounded far below 2^31, so int32 halves
	// the footprint.
	Idx []int32
	// BlockAt is the path position of each event's block.
	BlockAt []int32
	// ErrFrom[k] reports whether the path visits an error-handling block
	// at or after path position k; the extra index len(path) is always
	// false, so BlockAt[i]+1 is always a valid strict-after query.
	ErrFrom []bool
	// Branch is the branch direction the path takes at each event's block
	// (meaningful for OpCond events; TookUnknown at path end).
	Branch []int8
}

// ErrorAtOrAfter reports whether the path visits an error block at or after
// event i's block (inclusive).
func (tr *Trace) ErrorAtOrAfter(i int) bool { return tr.ErrFrom[tr.BlockAt[i]] }

// ErrorAfter reports whether the path visits an error block strictly after
// event i's block.
func (tr *Trace) ErrorAfter(i int) bool { return tr.ErrFrom[tr.BlockAt[i]+1] }

// BranchNonNull returns the names known non-NULL after event i's branch on
// this path (OpCond events; nil otherwise). all is the function's Data.All.
func (tr *Trace) BranchNonNull(all []semantics.Event, i int) []string {
	switch tr.Branch[i] {
	case TookTrue:
		return all[tr.Idx[i]].NonNullTrue
	case TookFalse:
		return all[tr.Idx[i]].NonNullFalse
	}
	return nil
}

// BranchNull returns the names known NULL after event i's branch on this
// path — the duality of BranchNonNull.
func (tr *Trace) BranchNull(all []semantics.Event, i int) []string {
	switch tr.Branch[i] {
	case TookTrue:
		return all[tr.Idx[i]].NonNullFalse
	case TookFalse:
		return all[tr.Idx[i]].NonNullTrue
	}
	return nil
}

// Data is the per-function fact set: everything derived from the function's
// CFG and events that checkers query, free of CFG pointers. Maps and slices
// are left nil when empty.
type Data struct {
	// Traces enumerates the function's bounded acyclic paths
	// (cfg.Graph.Paths semantics), normalized per Trace.
	Traces []Trace
	// All is the whole-function event view in CFG block order, blocks
	// stripped — the order checkers historically built by walking
	// Graph.Blocks. It is the only copy of the events: traces index it.
	All []semantics.Event
	// DecIdx and EscapeIdx index All: decrement events, and escaping
	// assignments (OpAssign with EscapesVia set). int32 for the same
	// reason as Trace.Idx.
	DecIdx    []int32
	EscapeIdx []int32
	// IncBases are base names incremented anywhere in the function;
	// OwnedBases is the subset whose increment came from a returns-ref API
	// (a locally acquired reference).
	IncBases   map[string]bool
	OwnedBases map[string]bool
}

// Events returns a fresh copy of tr's events, in path order — the
// materialized form a report's witness carries.
func (d *Data) Events(tr *Trace) []semantics.Event {
	out := make([]semantics.Event, len(tr.Idx))
	for i, k := range tr.Idx {
		out[i] = d.All[k]
	}
	return out
}

// FunctionFacts is the immutable per-function value handed to every checker:
// the pointer-free Data plus cheap recomputed views (declared variable types,
// parameter set) and back-references into the unit.
type FunctionFacts struct {
	Unit *cpg.Unit
	Fn   *cpg.Function
	Data *Data

	// VarTypes maps local and parameter names to their declared types.
	VarTypes map[string]cast.Type
}

// IsParam reports whether name is one of the function's parameters. The
// parameter list is a handful of entries, so a linear scan beats building a
// set per function.
func (ff *FunctionFacts) IsParam(name string) bool {
	for _, p := range ff.Fn.Def.Params {
		if p.Name == name {
			return true
		}
	}
	return false
}

// Traces returns the normalized path traces.
func (ff *FunctionFacts) Traces() []Trace { return ff.Data.Traces }

// All returns the whole-function event view in block order.
func (ff *FunctionFacts) All() []semantics.Event { return ff.Data.All }

// SmartLoop reports whether the event was injected by a registered smartloop
// macro (for_each_*-style iterators that hold a reference per iteration).
func (ff *FunctionFacts) SmartLoop(ev *semantics.Event) bool {
	return ev.FromMacro != "" && ff.Unit.DB.Loop(ev.FromMacro) != nil
}

// slot memoizes one function's facts.
type slot struct {
	once sync.Once
	ff   *FunctionFacts
}

// UnitFacts owns the lazily computed facts of every defined function in a
// unit. It is safe for concurrent use: each function's facts are computed
// exactly once no matter how many checkers or workers ask.
type UnitFacts struct {
	Unit *cpg.Unit

	names    []string
	slots    map[string]*slot
	computes atomic.Int64
	// ext extracts events against the unit's final DB; it is read-only, so
	// every worker shares it.
	ext *semantics.Extractor
}

// NewUnit prepares (but does not compute) facts for every defined function.
func NewUnit(u *cpg.Unit) *UnitFacts {
	globals := make(map[string]bool, len(u.Globals))
	for name := range u.Globals {
		globals[name] = true
	}
	uf := &UnitFacts{Unit: u, slots: map[string]*slot{},
		ext: &semantics.Extractor{DB: u.DB, GlobalNames: globals}}
	for _, fn := range u.DefinedFunctions() {
		uf.names = append(uf.names, fn.Def.Name)
		uf.slots[fn.Def.Name] = &slot{}
	}
	return uf
}

// FunctionNames returns the defined (body-carrying) function names in sorted
// order — the engine's unit of work.
func (uf *UnitFacts) FunctionNames() []string { return uf.names }

// Function returns the named function's facts, computing them on first use.
// It returns nil for prototypes and unknown names. The computation builds
// the function's CFG and event stream, derives Data from them and lets them
// go: only Data and VarTypes outlive the call.
func (uf *UnitFacts) Function(name string) *FunctionFacts {
	s := uf.slots[name]
	if s == nil {
		return nil
	}
	s.once.Do(func() {
		fn := uf.Unit.Functions[name]
		uf.computes.Add(1)
		g := cfg.BuildArena(fn.Def, uf.Unit.Arena)
		s.ff = &FunctionFacts{
			Unit:     uf.Unit,
			Fn:       fn,
			Data:     computeData(g, uf.ext.Extract(g)),
			VarTypes: varTypes(fn),
		}
	})
	return s.ff
}

// Computes returns how many functions' facts were computed so far — the
// memoization tests assert it equals the defined function count exactly
// once per unit at any worker count.
func (uf *UnitFacts) Computes() int64 { return uf.computes.Load() }

// Observe records the facts layer's work into reg: facts.computed counts
// functions whose facts were derived from the CPG this run, and the arena.*
// gauges report the build's allocator totals — the front end's plus the CFG
// slabs built here. Call after checking completes; the counter is
// deterministic at any worker count because the memoization is exactly-once.
func (uf *UnitFacts) Observe(reg *obs.Registry) {
	reg.Add("facts.computed", uf.computes.Load())
	st := uf.Unit.Arena
	if reg == nil || st == nil {
		return
	}
	// Gauges, not counters: pool hit/miss (and therefore fresh-chunk) counts
	// depend on goroutine scheduling, and the difftest matrix requires
	// counters to be identical across worker counts.
	reg.SetGauge("arena.bytes", float64(st.Bytes.Load()))
	reg.SetGauge("arena.chunks", float64(st.Chunks.Load()))
	reg.SetGauge("arena.reused", float64(st.Reused.Load()))
	reg.SetGauge("arena.released", float64(st.Released.Load()))
}

// SmartLoop is FunctionFacts.SmartLoop for unit-scoped checkers.
func (uf *UnitFacts) SmartLoop(ev *semantics.Event) bool {
	return ev.FromMacro != "" && uf.Unit.DB.Loop(ev.FromMacro) != nil
}

// computeData derives one function's Data from its CFG and event stream.
// The trace flattening mirrors the engine's historical per-checker walk
// exactly: for each path, events in block order with their path positions,
// branch directions resolved against the successor actually taken, and
// error-block reachability precomputed as a suffix scan. Traces record
// indexes into the extractor's event array, which then has its CFG block
// pointers stripped in place and becomes All: no event is copied.
func computeData(g *cfg.Graph, fe *semantics.FuncEvents) *Data {
	d := &Data{}
	paths := g.Paths(0)
	d.Traces = make([]Trace, 0, len(paths))
	// The traces' parallel slices are carved as capacity-bounded windows out
	// of four function-lifetime backing arrays, so the whole flattening costs
	// O(1) allocations per function rather than O(paths).
	grand, errLen := 0, 0
	for _, p := range paths {
		for _, b := range p {
			grand += int(fe.Off[b.ID+1] - fe.Off[b.ID])
		}
		errLen += len(p) + 1
	}
	var (
		idxBack, atBack []int32
		brBack          []int8
	)
	if grand > 0 {
		idxBack = make([]int32, 0, grand)
		atBack = make([]int32, 0, grand)
		brBack = make([]int8, 0, grand)
	}
	efBack := make([]bool, errLen)
	efOff := 0
	for _, p := range paths {
		tr := Trace{}
		start := len(idxBack)
		for bi, b := range p {
			var next *cfg.Block
			if bi+1 < len(p) {
				next = p[bi+1]
			}
			for k := fe.Off[b.ID]; k < fe.Off[b.ID+1]; k++ {
				br := TookUnknown
				switch semantics.BranchTaken(&fe.Events[k], next) {
				case 1:
					br = TookTrue
				case -1:
					br = TookFalse
				}
				idxBack = append(idxBack, k)
				atBack = append(atBack, int32(bi))
				brBack = append(brBack, br)
			}
		}
		if end := len(idxBack); end > start {
			tr.Idx = idxBack[start:end:end]
			tr.BlockAt = atBack[start:end:end]
			tr.Branch = brBack[start:end:end]
		}
		tr.ErrFrom = efBack[efOff : efOff+len(p)+1 : efOff+len(p)+1]
		efOff += len(p) + 1
		for k := len(p) - 1; k >= 0; k-- {
			tr.ErrFrom[k] = tr.ErrFrom[k+1] || p[k].IsError
		}
		d.Traces = append(d.Traces, tr)
	}
	d.All = fe.Events
	nDec, nEsc := 0, 0
	for i := range d.All {
		switch ev := &d.All[i]; {
		case ev.Op == semantics.OpDec:
			nDec++
		case ev.Op == semantics.OpAssign && ev.EscapesVia != "":
			nEsc++
		}
	}
	if nDec > 0 {
		d.DecIdx = make([]int32, 0, nDec)
	}
	if nEsc > 0 {
		d.EscapeIdx = make([]int32, 0, nEsc)
	}
	for i := range d.All {
		ev := &d.All[i]
		ev.Block = nil
		switch {
		case ev.Op == semantics.OpDec:
			d.DecIdx = append(d.DecIdx, int32(i))
		case ev.Op == semantics.OpAssign && ev.EscapesVia != "":
			d.EscapeIdx = append(d.EscapeIdx, int32(i))
		case ev.Op == semantics.OpInc && ev.Obj != "":
			base := semantics.BaseOf(ev.Obj)
			if d.IncBases == nil {
				d.IncBases = map[string]bool{}
			}
			d.IncBases[base] = true
			if ev.Info != nil && ev.Info.ReturnsRef {
				if d.OwnedBases == nil {
					d.OwnedBases = map[string]bool{}
				}
				d.OwnedBases[base] = true
			}
		}
	}
	return d
}

func varTypes(fn *cpg.Function) map[string]cast.Type {
	out := map[string]cast.Type{}
	for _, p := range fn.Def.Params {
		out[p.Name] = p.Type
	}
	if fn.Def.Body != nil {
		cast.Walk(fn.Def.Body, func(n cast.Node) bool {
			if d, ok := n.(*cast.DeclStmt); ok {
				out[d.Name] = d.Type
			}
			return true
		})
	}
	return out
}
