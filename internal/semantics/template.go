package semantics

import (
	"strings"

	"repro/internal/apidb"
	"repro/internal/cfg"
)

// Binding carries the object variable shared by a template's steps (the
// paper's p0 in S_P(p0) → S_D(p0)).
type Binding struct {
	Obj string
}

// Step is one element of a path template: either an event matcher or a block
// (context) matcher such as B_error.
type Step struct {
	Name string
	// Event matches one event; at most one of Event/Block is set. bind is
	// shared along the whole match attempt.
	Event func(ev Event, bind *Binding) bool
	// Block matches a basic block on the path (a context like B_error).
	Block func(b *cfg.Block) bool
}

// Template is an anti-pattern written as an ordered path template
// F_start → step₁ → … → stepₙ → F_end, optionally with a forbidden event
// class: a candidate path is a match only if no event matching Forbidden
// occurs after step ForbiddenAfter (0-based step index).
type Template struct {
	Name           string
	Steps          []Step
	Forbidden      func(ev Event, bind *Binding) bool
	ForbiddenAfter int
}

// Match is one instance of a template on one path.
type Match struct {
	Template *Template
	Path     cfg.Path
	Events   []Event // the event matched by each event-step, in order
	Binding  Binding
}

// String renders the template in the paper's arrow notation.
func (t *Template) String() string {
	parts := []string{"F_start"}
	for _, s := range t.Steps {
		parts = append(parts, s.Name)
	}
	parts = append(parts, "F_end")
	return strings.Join(parts, " -> ")
}

// pathItem linearizes a path: block boundaries interleaved with events.
type pathItem struct {
	block *cfg.Block // non-nil for block items
	event *Event     // non-nil for event items
}

func linearize(fe *FuncEvents, p cfg.Path) []pathItem {
	var items []pathItem
	for _, b := range p {
		items = append(items, pathItem{block: b})
		evs := fe.Of(b)
		for i := range evs {
			items = append(items, pathItem{event: &evs[i]})
		}
	}
	return items
}

// MatchTemplate finds instances of t in the function's bounded path set.
// Matches with identical (first event position, binding) pairs are deduped
// across paths. maxPaths <= 0 uses the cfg default.
func MatchTemplate(fe *FuncEvents, t *Template, maxPaths int) []Match {
	var out []Match
	seen := map[string]bool{}
	for _, p := range fe.Graph.Paths(maxPaths) {
		items := linearize(fe, p)
		var results []matchState
		match(items, t, 0, 0, Binding{}, nil, &results)
		for _, st := range results {
			if t.Forbidden != nil && violates(items, t, st) {
				continue
			}
			key := matchKey(st)
			if seen[key] {
				continue
			}
			seen[key] = true
			out = append(out, Match{
				Template: t, Path: p, Events: st.events, Binding: st.bind,
			})
		}
	}
	return out
}

type matchState struct {
	events    []Event
	bind      Binding
	stepEnds  []int // item index right after each matched step
	itemCount int
}

func matchKey(st matchState) string {
	var b strings.Builder
	for _, ev := range st.events {
		b.WriteString(ev.Pos.String())
		b.WriteByte('|')
	}
	b.WriteString(st.bind.Obj)
	return b.String()
}

// match explores item/step alignments with backtracking; every complete
// alignment is recorded (bounded: one result per distinct first alignment is
// enough, but full enumeration stays cheap on block-sized paths).
func match(items []pathItem, t *Template, item, step int, bind Binding, evs []Event, results *[]matchState) {
	if step == len(t.Steps) {
		*results = append(*results, matchState{
			events: append([]Event(nil), evs...), bind: bind,
			stepEnds: nil, itemCount: item,
		})
		return
	}
	if len(*results) >= 64 { // plenty for checker purposes
		return
	}
	s := t.Steps[step]
	for i := item; i < len(items); i++ {
		it := items[i]
		if s.Block != nil && it.block != nil && s.Block(it.block) {
			match(items, t, i+1, step+1, bind, evs, results)
		}
		if s.Event != nil && it.event != nil {
			b2 := bind
			if s.Event(*it.event, &b2) {
				match(items, t, i+1, step+1, b2, append(evs, *it.event), results)
			}
		}
	}
}

// violates reports whether a forbidden event occurs after the configured
// step on the matched path. Because match does not retain per-step item
// indexes (kept lean), the forbidden scan runs over the whole item list when
// ForbiddenAfter == 0, else from the position of the N-th matched event.
func violates(items []pathItem, t *Template, st matchState) bool {
	startPos := 0
	if t.ForbiddenAfter > 0 && t.ForbiddenAfter <= len(st.events) {
		// Find the item index of the ForbiddenAfter-th matched event.
		target := st.events[t.ForbiddenAfter-1]
		for i, it := range items {
			if it.event != nil && it.event.Pos == target.Pos && it.event.Op == target.Op {
				startPos = i + 1
				break
			}
		}
	}
	for _, it := range items[startPos:] {
		if it.event != nil && t.Forbidden(*it.event, &st.bind) {
			return true
		}
	}
	return false
}

// --- step constructors (the paper's operator/context vocabulary) ---

// IncStep matches 𝒢 events, optionally filtered by API properties, binding
// the object when bind is set.
func IncStep(name string, filter func(*apidb.API) bool, bind bool) Step {
	return Step{Name: name, Event: func(ev Event, b *Binding) bool {
		if ev.Op != OpInc {
			return false
		}
		if filter != nil && !filter(ev.Info) {
			return false
		}
		if bind {
			if b.Obj == "" {
				b.Obj = ev.Obj
			} else if b.Obj != ev.Obj {
				return false
			}
		}
		return true
	}}
}

// DecStep matches 𝒫 events, binding/checking the shared object when bind is
// set.
func DecStep(name string, bind bool) Step {
	return Step{Name: name, Event: func(ev Event, b *Binding) bool {
		if ev.Op != OpDec {
			return false
		}
		if bind {
			if b.Obj == "" {
				b.Obj = ev.Obj
			} else if b.Obj != ev.Obj {
				return false
			}
		}
		return true
	}}
}

// DerefStep matches 𝒟 events on the bound object (comparing against the
// object key's base identifier).
func DerefStep(name string) Step {
	return Step{Name: name, Event: func(ev Event, b *Binding) bool {
		if ev.Op != OpDeref {
			return false
		}
		return b.Obj != "" && BaseOf(b.Obj) == ev.Obj
	}}
}

// FreeStep matches a direct kfree-family call on the bound object (𝒮_free).
func FreeStep(name string) Step {
	return Step{Name: name, Event: func(ev Event, b *Binding) bool {
		if ev.Op != OpFree {
			return false
		}
		return b.Obj != "" && (ev.Obj == b.Obj || BaseOf(ev.Obj) == BaseOf(b.Obj))
	}}
}

// BreakStep matches a break statement not injected by a macro (user-written
// early exit, P3).
func BreakStep(name string) Step {
	return Step{Name: name, Event: func(ev Event, b *Binding) bool {
		return ev.Op == OpBreak && ev.FromMacro == ""
	}}
}

// ErrorBlockStep matches the B_error context.
func ErrorBlockStep() Step {
	return Step{Name: "B_error", Block: func(b *cfg.Block) bool { return b.IsError }}
}

// SmartLoopStep matches a loop-head block generated by the named macro class
// (M_SL); any registered smartloop matches when loops is nil.
func SmartLoopStep(isLoop func(macro string) bool) Step {
	return Step{Name: "M_SL", Block: func(b *cfg.Block) bool {
		return b.LoopHead && b.FromMacro != "" && (isLoop == nil || isLoop(b.FromMacro))
	}}
}

// ForbidDecOf returns a Forbidden matcher rejecting paths that decrement the
// bound object (used by leak templates: the bug is the *absence* of 𝒫).
func ForbidDecOf() func(Event, *Binding) bool {
	return func(ev Event, b *Binding) bool {
		if ev.Op != OpDec {
			return false
		}
		if b.Obj == "" {
			// Unbound object (dropped reference): any put of the same API
			// family would be coincidental; only an explicit put of an
			// empty key matches.
			return ev.Obj == ""
		}
		return ev.Obj == b.Obj || BaseOf(ev.Obj) == BaseOf(b.Obj)
	}
}
