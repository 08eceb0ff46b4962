package incr

import (
	"slices"
	"strings"
	"testing"
)

const splitBase = `program p
global g int = 1
global h int
proc main() {
  use g
  call f(g)
}
func f(x int) int {
  if x > 0 { return x }
  return 0
}
`

// TestSplitSource: a split locates every global declaration and
// procedure and digests bodies and initializers apart from the
// skeleton. Layout and comments change none of them; a body edit
// changes that body alone; an initializer edit, or a global gaining
// one, changes the initializers alone; a header edit changes the
// skeleton; a scan diagnostic or braces that do not pair up as
// procedure headers and bodies give no split.
func TestSplitSource(t *testing.T) {
	sw := SweepSource(splitBase)
	base := sw.Split
	if !sw.SplitOK || len(base.Procs) != 2 {
		t.Fatalf("SweepSource(base) split %+v, %v; want two procedures", base, sw.SplitOK)
	}
	if !strings.HasPrefix(splitBase[base.Globals:], "global g") {
		t.Errorf("globals start at %q", splitBase[base.Globals:])
	}
	for i, sp := range base.Procs {
		if !strings.HasPrefix(splitBase[sp.Start:], []string{"proc main", "func f"}[i]) {
			t.Errorf("proc %d starts at %q", i, splitBase[sp.Start:])
		}
	}
	if next := base.Procs[0].Next; next != base.Procs[1].Start {
		t.Errorf("main's Next = %d, want f's start %d", next, base.Procs[1].Start)
	}
	if next := base.Procs[1].Next; next != len(splitBase) {
		t.Errorf("f's Next = %d, want the source length %d", next, len(splitBase))
	}
	for _, row := range []struct {
		name, old, new string
		skeleton       bool   // the skeleton changes
		inits          bool   // the initializers change
		bodies         []bool // which bodies change
		ok             bool
	}{
		{"layout and comments", "  call f(g)\n", "  # note\n\n\tcall   f( g )\n", false, false, []bool{false, false}, true},
		{"body literal", "return 0", "return 1", false, false, []bool{false, true}, true},
		{"empty string literal", "call f(g)", "print \"\"\n  call f(g)", false, false, []bool{true, false}, true},
		{"initializer", "int = 1", "int = 2", false, true, []bool{false, false}, true},
		{"negated initializer", "int = 1", "int = -1", false, true, []bool{false, false}, true},
		{"gains an initializer", "global h int\n", "global h int = 4\n", false, true, []bool{false, false}, true},
		{"initializer moves", "int = 1\nglobal h int\n", "int\nglobal h int = 1\n", false, true, []bool{false, false}, true},
		{"global type", "global h int", "global h real", true, false, []bool{false, false}, true},
		{"header", "func f(x int)", "func f(y int)", true, false, []bool{false, false}, true},
		{"stray brace", "program p\n", "program p\n}\n", false, false, nil, false},
		{"brace in an initializer", "int = 1", "int = {", false, false, nil, false},
		{"unclosed body", "  return 0\n}\n", "  return 0\n", false, false, nil, false},
		{"header without body", "proc main() {", "proc h()\nproc main() {", false, false, nil, false},
		{"scan diagnostic", "return 0", "return 0 @", false, false, nil, false},
	} {
		src := strings.Replace(splitBase, row.old, row.new, 1)
		if src == splitBase {
			t.Fatalf("%s: base has no %q", row.name, row.old)
		}
		got := SweepSource(src)
		if got.SplitOK != row.ok {
			t.Errorf("%s: split ok = %v, want %v", row.name, got.SplitOK, row.ok)
			continue
		}
		sameKey := row.ok && !row.skeleton && !row.inits && !slices.Contains(row.bodies, true)
		if (got.Key == sw.Key) != sameKey {
			t.Errorf("%s: token key unchanged = %v, want %v", row.name, got.Key == sw.Key, sameKey)
		}
		if !got.SplitOK {
			continue
		}
		if changed := got.Split.Skeleton != base.Skeleton; changed != row.skeleton {
			t.Errorf("%s: skeleton changed = %v, want %v", row.name, changed, row.skeleton)
		}
		if changed := got.Split.Inits != base.Inits; changed != row.inits {
			t.Errorf("%s: initializers changed = %v, want %v", row.name, changed, row.inits)
		}
		for i, want := range row.bodies {
			if changed := got.Split.Procs[i].Body != base.Procs[i].Body; changed != want {
				t.Errorf("%s: body %d changed = %v, want %v", row.name, i, changed, want)
			}
		}
	}
}
