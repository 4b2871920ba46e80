package core

import (
	"context"

	"repro/internal/analysiscache"
	"repro/internal/apidb"
	"repro/internal/cast"
	"repro/internal/cpp"
	"repro/internal/facts"
	"repro/internal/obs"
	"repro/internal/refsim"
	"repro/internal/semantics"
	"repro/internal/workpool"
)

// Checker is one anti-pattern detector, written as a query over the shared
// facts layer. Function-scoped checkers receive one function's immutable
// FunctionFacts at a time; unit-scoped checkers (P6) receive the whole unit
// via UnitChecker.CheckUnit and return nil from Check.
//
// Checkers that own only part of a diagnosis emit candidates tagged with a
// DeferralReason instead of skipping them inline — the engine's precedence
// table (precedence.go) drops deferred candidates after collection.
type Checker interface {
	ID() Pattern
	Check(ff *facts.FunctionFacts) []Report
}

// UnitChecker is implemented by checkers that need whole-unit context.
type UnitChecker interface {
	CheckUnit(uf *facts.UnitFacts) []Report
}

// Engine runs a checker suite over units. Engines are built from the pass
// registry — NewEngine (all registered checkers) or NewEngineFor (a subset)
// in registry.go.
type Engine struct {
	Checkers []Checker
	// Workers bounds the per-function checking concurrency: 0 means
	// GOMAXPROCS, 1 forces sequential checking. The checkers are stateless
	// and the unit is read-only during checking, so the function work queue
	// fans out safely; per-worker report buffers are merged in the
	// sequential (checker-major, function-name) order before finalize, so
	// the report list is byte-identical at any worker count.
	Workers int
	// Obs, when non-nil, is the parent span the engine hangs per-function
	// "fn" spans and checker counters off (checker.functions, reports.total,
	// reports.<pattern>, deferrals.<pattern>.<reason>). Nil disables at
	// effectively zero cost; reports are byte-identical either way.
	Obs *obs.Span
}

// CheckUnitFactsContext runs every checker over the shared facts layer and
// returns deduplicated, position-sorted reports. Each function's facts are
// computed exactly once (UnitFacts memoizes under sync.Once) no matter how
// many checkers or workers consume them. After collection the engine applies
// the deferral table, then cross-pattern rank suppression: P1 (deviation)
// beats P5/P4 on the same (function, object), and P4 beats P5.
//
// When ctx is cancelled mid-check the work queue drains cleanly and the
// return covers only the functions checked before cancellation; callers that
// must distinguish a partial result check ctx.Err().
func (e *Engine) CheckUnitFactsContext(ctx context.Context, uf *facts.UnitFacts) []Report {
	reg := e.Obs.Reg()

	// Defined functions in name order — the unit of work.
	fns := uf.FunctionNames()

	// fnResults[fi][ci] holds checker ci's reports for function fi; each
	// (function, checker) cell is written by exactly one worker. A nil cell
	// marks a function skipped by cancellation.
	fnResults := make([][][]Report, len(fns))
	// One backing array serves every function's checker cell; each worker
	// writes only its own function's window, so the windows never overlap.
	nc := len(e.Checkers)
	cellBacking := make([][]Report, len(fns)*nc)
	checkFn := func(fi int) {
		ff := uf.Function(fns[fi])
		cell := cellBacking[fi*nc : (fi+1)*nc : (fi+1)*nc]
		found := 0
		for ci, c := range e.Checkers {
			if _, unit := c.(UnitChecker); unit {
				continue
			}
			cell[ci] = c.Check(ff)
			found += len(cell[ci])
		}
		fnResults[fi] = cell
		// Only candidate-bearing functions get a span: at thousands of
		// functions per unit, the all-functions span list dominated trace
		// memory (several allocations apiece) while carrying no signal.
		if found > 0 {
			e.Obs.Child("fn").Str("name", fns[fi]).Int("candidates", found).End()
		}
	}

	// The function queue runs first, so every function's facts — and with
	// them its transient CFG — are computed on the parallel workers.
	// Unit-scoped checkers (P6) then run on the coordinating goroutine after
	// the queue drains, reading the memoized facts; the two never overlap.
	checked := workpool.Run(ctx, e.Workers, len(fns), checkFn)
	unitResults := make([][]Report, len(e.Checkers))
	for ci, c := range e.Checkers {
		if uc, ok := c.(UnitChecker); ok {
			sp := e.Obs.Child("pass").Str("pattern", string(c.ID()))
			unitResults[ci] = uc.CheckUnit(uf)
			sp.Int("candidates", len(unitResults[ci])).End()
		}
	}

	// Merge in checker-major, function-name order — exactly the order the
	// sequential loop produced, so finalize sees an identical input stream
	// (duplicate survival and tie-breaks match byte for byte). The merged
	// slice is sized once: candidates outnumber final reports, and growing
	// it by doubling copied every one of them several times.
	n := 0
	for _, rs := range unitResults {
		n += len(rs)
	}
	for _, rs := range cellBacking {
		n += len(rs)
	}
	all := make([]Report, 0, n)
	for ci, c := range e.Checkers {
		if _, unit := c.(UnitChecker); unit {
			all = append(all, unitResults[ci]...)
			continue
		}
		for fi := range fns {
			if fnResults[fi] == nil {
				continue
			}
			all = append(all, fnResults[fi][ci]...)
		}
	}
	out := finalize(applyDeferrals(all, reg))
	materializeWitnesses(out)
	if reg != nil {
		reg.Add("checker.functions", int64(checked))
		reg.Add("reports.total", int64(len(out)))
		for _, r := range out {
			reg.Add("reports."+string(r.Pattern), 1)
		}
	}
	return out
}

// Options configures the one-call pipeline.
type Options struct {
	// Workers is the single parallelism knob, threaded through the CPG
	// builder (file-sharded front end), the checker engine (per-function
	// facts, CFGs included, and checking), and — when Confirm is set — the
	// refsim confirmation stage.
	// 0 means GOMAXPROCS; 1 forces a fully sequential run. Output is
	// byte-identical at any worker count.
	Workers int
	// Confirm replays every report's witness through refsim and sets
	// Report.Confirmed.
	Confirm bool
	// DB is the API knowledge base, extended in place by discovery; nil
	// means a fresh apidb.New().
	DB *apidb.DB
	// Cache enables the incremental analysis cache (unit-level report
	// reuse, per-function facts reuse, per-file front-end reuse); nil
	// disables caching.
	Cache *analysiscache.Cache
	// ConfigFP fingerprints checker configuration that is not derivable
	// from the sources — e.g. the content of an -apidb extension file. It
	// is folded into every cache key; callers with differing configs must
	// pass differing fingerprints (or distinct cache directories).
	ConfigFP string
	// Checkers selects a subset of registered checkers by pattern ID; nil
	// or empty runs every registered checker. The selection is folded into
	// the unit-level cache key, so subset runs never poison full-run
	// entries. Unknown patterns panic — CLI callers validate user input
	// with ParsePatterns first.
	Checkers []Pattern
	// Admit, when non-nil, gates admission into the heavy compute phases:
	// Analyze acquires a slot before running the build→facts→check pipeline
	// and releases it when the pipeline (but not confirmation of a cached
	// result) finishes. Cache hits and single-flight waiters never touch the
	// gate — only real computations consume capacity, which is what lets a
	// serving layer bound concurrent pipelines while hits stay unqueued.
	// An Acquire error aborts the run and is returned from Analyze verbatim.
	Admit Admission
}

// Admission is the request-admission hook a serving layer plugs into
// Options.Admit: Acquire blocks until a compute slot is free (honoring ctx)
// or fails fast — e.g. with a sentinel the server maps to backpressure.
// The returned release must be called exactly once when the admitted
// computation ends.
type Admission interface {
	Acquire(ctx context.Context) (release func(), err error)
}

// newHeaderProvider wraps a header map in the suffix-indexed provider so
// kernel-style <linux/of.h> resolution costs one map probe per #include.
func newHeaderProvider(headers map[string]string) cpp.FileProvider {
	return cpp.NewIndexedFiles(headers)
}

// ConfirmReports replays each report's witness through the refsim oracle in
// a batch (each replay is independent, so they fan out across workers) and
// sets Report.Confirmed in place. It returns the number confirmed. Verdicts
// are a pure function of (witness, claim), so the worker count cannot change
// the outcome.
func ConfirmReports(reports []Report, workers int) int {
	return ConfirmReportsSpan(reports, workers, nil)
}

// ConfirmReportsSpan is ConfirmReports under an observability span: when
// parent is non-nil the replay batch appears as a "refsim" child span and
// counts refsim.replays / refsim.confirmed into the span's registry.
func ConfirmReportsSpan(reports []Report, workers int, parent *obs.Span) int {
	jobs := make([]refsim.Job, len(reports))
	for i, r := range reports {
		jobs[i] = refsim.Job{
			Witness: r.Witness,
			Claim: refsim.Claim{
				Impact:       r.Impact.String(),
				Object:       r.Object,
				AllowEscaped: r.Pattern == P6,
			},
		}
	}
	verdicts := refsim.ReplayAllSpan(jobs, workers, parent)
	n := 0
	for i := range reports {
		reports[i].Confirmed = verdicts[i].Confirmed
		if verdicts[i].Confirmed {
			n++
		}
	}
	return n
}

// --- shared helpers for checkers ---

// castType abbreviates cast.Type in checker signatures.
type castType = cast.Type

// isRefStructVar reports whether the named variable's declared type is a
// pointer to a refcounted structure.
func isRefStructVar(db *apidb.DB, types map[string]cast.Type, name string) bool {
	t, ok := types[name]
	if !ok || !t.IsPointer() {
		return false
	}
	s := t.StructName()
	return s != "" && db.IsRefStruct(s)
}

// sameObj compares two object keys, tolerating base-vs-full-key mismatches
// (kref_put(&d->ref) balances kref_get(&d->ref); of_node_put(np) balances
// np).
func sameObj(a, b string) bool {
	if a == "" || b == "" {
		return a == b
	}
	return a == b || semantics.BaseOf(a) == semantics.BaseOf(b)
}
