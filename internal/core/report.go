// Package core is the paper's primary contribution: nine anti-pattern static
// checkers for refcounting bugs (§5–§6), driven by the semantic-template
// layer over code property graphs.
//
// The checkers are:
//
//	P1  return-error deviation      F_start → S_{G_E} → B_error → F_end      (leak)
//	P2  return-NULL deviation       F_start → S_{G_N} → S_{D_N} → F_end      (NPD)
//	P3  smartloop break             F_start → M_SL → S_break → F_end         (leak)
//	P4  hidden get/put              F_start → S_{G_H|P_H} → F_end            (leak / UAF)
//	P5  error-handle location       F_start → S_G → S_P|B_error → F_end      (leak)
//	P6  inter-paired callbacks      F⊤: S_G … ∧ F⊥ without S_P               (leak)
//	P7  direct-free                 F_start → S_G → S_free → F_end           (leak)
//	P8  use-after-decrease (UAD)    F_start → S_{P(p0)} → S_{D(p0)} → F_end  (UAF)
//	P9  reference escape            F_start → S_{A_{G|O}} → F_end            (UAF)
package core

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/clex"
	"repro/internal/facts"
	"repro/internal/semantics"
)

// Impact is the security impact class of a report (§4.1, §6.3).
type Impact int

// Impacts.
const (
	Leak Impact = iota
	UAF
	NPD
)

// String names the impact as in Table 4.
func (i Impact) String() string {
	switch i {
	case Leak:
		return "Leak"
	case UAF:
		return "UAF"
	default:
		return "NPD"
	}
}

// Pattern identifies an anti-pattern checker.
type Pattern string

// The nine anti-patterns.
const (
	P1 Pattern = "P1"
	P2 Pattern = "P2"
	P3 Pattern = "P3"
	P4 Pattern = "P4"
	P5 Pattern = "P5"
	P6 Pattern = "P6"
	P7 Pattern = "P7"
	P8 Pattern = "P8"
	P9 Pattern = "P9"
)

// Report is one detected anti-pattern instance.
type Report struct {
	Pattern  Pattern
	Impact   Impact
	Function string
	File     string
	Pos      clex.Pos

	// Object is the leaked/misused reference's canonical key.
	Object string
	// API is the bug-caused API (Table 5's "Bug-Caused API" column).
	API string

	Message    string
	Suggestion string // suggested patch, one line of C

	// Witness is the event trace of the buggy path, consumed by
	// internal/refsim for dynamic confirmation.
	Witness []semantics.Event
	// witness names the path trace a checker found the bug on; the engine
	// copies it into Witness only for reports that survive deferral and
	// deduplication (see materializeWitnesses), so a dropped candidate
	// never copies its path's events.
	witness traceRef

	// Confirmed is set by dynamic confirmation (refsim replay).
	Confirmed bool

	// Deferred, when non-empty, marks this report as a candidate another
	// pattern owns (see the deferral table in precedence.go); the engine
	// drops tagged candidates after collection, so reports that reach
	// callers always have it empty.
	Deferred DeferralReason
}

// Subsystem returns the top-level tree ("drivers", "net", "arch", ...) the
// report's file belongs to.
func (r *Report) Subsystem() string {
	parts := strings.Split(r.File, "/")
	if len(parts) > 0 {
		return parts[0]
	}
	return r.File
}

// Module returns the second-level directory ("clk" for drivers/clk/...), or
// "" when the path is flat.
func (r *Report) Module() string {
	parts := strings.Split(r.File, "/")
	if len(parts) > 1 {
		return parts[1]
	}
	return ""
}

// String renders the report in compiler-diagnostic style.
func (r *Report) String() string {
	return fmt.Sprintf("%s: [%s/%s] %s in %s: %s",
		r.Pos, r.Pattern, r.Impact, r.API, r.Function, r.Message)
}

// Key identifies a report for deduplication: same place, same pattern, same
// object. Built with a sized append rather than Sprintf — dedup calls this
// for every candidate report, which made it one of the hottest allocation
// sites in the checking phase.
func (r *Report) Key() string {
	b := make([]byte, 0, len(r.File)+len(r.Pattern)+len(r.Object)+16)
	b = append(b, r.File...)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(r.Pos.Line), 10)
	b = append(b, '|')
	b = append(b, r.Pattern...)
	b = append(b, '|')
	b = append(b, r.Object...)
	return string(b)
}

// traceRef is a report's not-yet-materialized witness: one trace of a
// function's facts.
type traceRef struct {
	d  *facts.Data
	tr *facts.Trace
}

// materializeWitnesses fills each report's Witness from its trace and
// drops the reference, so reports leaving the engine hold plain events.
func materializeWitnesses(reports []Report) {
	for i := range reports {
		if w := reports[i].witness; w.tr != nil {
			reports[i].Witness = w.d.Events(w.tr)
			reports[i].witness = traceRef{}
		}
	}
}

// dedupKey is the comparable position+object form of the checkers'
// report-dedup keys. Building one allocates nothing, unlike the
// pos.String()+"|"+obj concatenation it replaced on the checking hot path.
type dedupKey struct {
	pos clex.Pos
	obj string
	tag string
}

func dk(pos clex.Pos, obj, tag string) dedupKey {
	return dedupKey{pos: pos, obj: obj, tag: tag}
}
