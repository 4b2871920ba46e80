package apidb

import "repro/internal/cast"

// counterFieldTypes are the base types whose presence makes a structure
// refcounted.
var counterFieldTypes = map[string]bool{
	"refcount_t": true, "atomic_t": true, "kref": true, "kobject": true,
}

// NestingThreshold bounds how deep struct containment is followed when
// classifying refcounted structures (§6.1: "the structure parser relies on a
// threshold to control the parsing levels as a refcounted object can be used
// in another structures, which can be nested defined").
const NestingThreshold = 3

func isCounterField(name string) bool {
	switch name {
	case "refcount", "refcnt", "ref", "count", "usage", "users", "kref":
		return true
	}
	return false
}

// returnsNullOnSomePath reports whether any return statement yields NULL/0
// for a pointer-returning function.
func returnsNullOnSomePath(fd *cast.FuncDef) bool {
	var sawNull bool
	cast.Walk(fd.Body, func(n cast.Node) bool {
		if r, ok := n.(*cast.ReturnStmt); ok && r.Value != nil {
			switch v := r.Value.(type) {
			case *cast.Lit:
				if v.Text == "0" {
					sawNull = true
				}
			case *cast.Ident:
				if v.Name == "NULL" {
					sawNull = true
				}
			}
		}
		return true
	})
	return sawNull
}

// pairKey is one (struct, op) bucket of the pairing index.
type pairKey struct {
	strct string
	op    Op
}

// pairBucket counts a bucket's APIs and keeps the last one seen, which is
// its only member whenever the count is 1.
type pairBucket struct {
	count int
	last  *API
}

// inferPairs links newly discovered APIs (names, all with an op) with the
// opposite-direction entry on the same struct when that entry is the only
// one. One pass buckets the table by (struct, op); pairing never writes
// Struct or Op, so the counts stay valid while names are walked in order.
// An entry already paired, by the seed or by an earlier name, is skipped.
func (db *DB) inferPairs(names []string) {
	buckets := map[pairKey]pairBucket{}
	for _, b := range db.apis {
		if b.Struct == "" || b.Op == OpNone {
			continue
		}
		k := pairKey{b.Struct, b.Op}
		bk := buckets[k]
		bk.count++
		bk.last = b
		buckets[k] = bk
	}
	for _, n := range names {
		a := db.apis[n]
		if a.Pair != "" || a.Struct == "" {
			continue
		}
		want := OpInc
		if a.Op == OpInc {
			want = OpDec
		}
		bk := buckets[pairKey{a.Struct, want}]
		if bk.count == 1 {
			a.Pair = bk.last.Name
			if bk.last.Pair == "" {
				bk.last.Pair = a.Name
			}
		}
	}
}
