package cparse

import (
	"testing"
	"unsafe"

	"repro/internal/arena"
	"repro/internal/cast"
	"repro/internal/cpp"
)

// slabNodeBytes sums the sizes of the slab-allocated node kinds reachable
// from f (see astAlloc), and reports how many distinct kinds occur.
func slabNodeBytes(f *cast.File) (bytes int64, kinds int) {
	seen := map[string]bool{}
	add := func(kind string, size uintptr) {
		bytes += int64(size)
		seen[kind] = true
	}
	cast.Walk(f, func(n cast.Node) bool {
		switch x := n.(type) {
		case *cast.Ident:
			add("ident", unsafe.Sizeof(*x))
		case *cast.Lit:
			add("lit", unsafe.Sizeof(*x))
		case *cast.CallExpr:
			add("call", unsafe.Sizeof(*x))
		case *cast.BinaryExpr:
			add("binary", unsafe.Sizeof(*x))
		case *cast.UnaryExpr:
			add("unary", unsafe.Sizeof(*x))
		case *cast.MemberExpr:
			add("member", unsafe.Sizeof(*x))
		case *cast.ParenExpr:
			add("paren", unsafe.Sizeof(*x))
		case *cast.AssignExpr:
			add("assign", unsafe.Sizeof(*x))
		case *cast.IndexExpr:
			add("index", unsafe.Sizeof(*x))
		case *cast.ExprStmt:
			add("exprstmt", unsafe.Sizeof(*x))
		case *cast.DeclStmt:
			add("declstmt", unsafe.Sizeof(*x))
		case *cast.CompoundStmt:
			add("compound", unsafe.Sizeof(*x))
		case *cast.IfStmt:
			add("if", unsafe.Sizeof(*x))
		case *cast.ReturnStmt:
			add("return", unsafe.Sizeof(*x))
		}
		return true
	})
	return bytes, len(seen)
}

// TestSmallParseSlabSlack pins that a small file's AST slabs stay close to
// the nodes they hold: with geometric chunks the slab bytes are within 2x
// the node bytes plus a 4-slot first chunk per node kind, and within 3x the
// node bytes overall, where fixed 64-slot chunks cost one full chunk per
// kind however few nodes it held.
func TestSmallParseSlabSlack(t *testing.T) {
	res := cpp.New(nil).Process("small.c", `
struct foo_dev { struct kref ref; int id; };
static int foo_probe(struct foo_dev *d, int flags)
{
	struct device_node *np = of_find_node_by_path("/soc");
	if (!np)
		return -ENODEV;
	d->id = flags + 1;
	of_node_put(np);
	return 0;
}
static void foo_remove(struct foo_dev *d)
{
	kref_put(&d->ref, foo_release);
}
`)
	st := &arena.Stats{}
	f, errs := ParseFileArena("small.c", res.Tokens, st)
	if len(errs) != 0 {
		t.Fatalf("parse errors: %v", errs)
	}
	nodes, kinds := slabNodeBytes(f)
	if nodes == 0 {
		t.Fatal("no slab-allocated nodes found")
	}
	slab := st.Bytes.Load()
	t.Logf("slab bytes %d for node bytes %d across %d kinds", slab, nodes, kinds)
	// Every kind's first chunk holds 4 nodes, the largest kind at most
	// maxNode bytes each.
	const maxNode = 256
	if limit := 2*nodes + int64(kinds)*4*maxNode; slab > limit {
		t.Errorf("slab bytes %d exceed 2x node bytes %d plus 4 slots per kind (%d kinds): limit %d",
			slab, nodes, kinds, limit)
	}
	if slab > 3*nodes {
		t.Errorf("slab bytes %d exceed 3x node bytes %d", slab, nodes)
	}
}
