package incr

import (
	"strings"
	"testing"
)

const splitBase = `program p
global g int = 1
proc main() {
  use g
  call f(g)
}
func f(x int) int {
  if x > 0 { return x }
  return 0
}
`

// TestSplitSource: a split locates every procedure and digests its
// body apart from the skeleton. Layout and comments change neither; a
// body edit changes that body alone; an initializer or a header edit
// changes the skeleton; a scan diagnostic or braces that do not pair
// up as procedure headers and bodies give no split.
func TestSplitSource(t *testing.T) {
	base, ok := SplitSource(splitBase)
	if !ok || len(base.Procs) != 2 {
		t.Fatalf("SplitSource(base) = %+v, %v; want two procedures", base, ok)
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
		bodies         []bool // which bodies change
		ok             bool
	}{
		{"layout and comments", "  call f(g)\n", "  # note\n\n\tcall   f( g )\n", false, []bool{false, false}, true},
		{"body literal", "return 0", "return 1", false, []bool{false, true}, true},
		{"empty string literal", "call f(g)", "print \"\"\n  call f(g)", false, []bool{true, false}, true},
		{"initializer", "int = 1", "int = 2", true, []bool{false, false}, true},
		{"header", "func f(x int)", "func f(y int)", true, []bool{false, false}, true},
		{"stray brace", "program p\n", "program p\n}\n", false, nil, false},
		{"unclosed body", "  return 0\n}\n", "  return 0\n", false, nil, false},
		{"header without body", "proc main() {", "proc h()\nproc main() {", false, nil, false},
		{"scan diagnostic", "return 0", "return 0 @", false, nil, false},
	} {
		src := strings.Replace(splitBase, row.old, row.new, 1)
		if src == splitBase {
			t.Fatalf("%s: base has no %q", row.name, row.old)
		}
		got, ok := SplitSource(src)
		if ok != row.ok {
			t.Errorf("%s: ok = %v, want %v", row.name, ok, row.ok)
			continue
		}
		if !ok {
			continue
		}
		if changed := got.Skeleton != base.Skeleton; changed != row.skeleton {
			t.Errorf("%s: skeleton changed = %v, want %v", row.name, changed, row.skeleton)
		}
		for i, want := range row.bodies {
			if changed := got.Procs[i].Body != base.Procs[i].Body; changed != want {
				t.Errorf("%s: body %d changed = %v, want %v", row.name, i, changed, want)
			}
		}
	}
}
