package ssa

import (
	"reflect"
	"testing"
)

// hasPointers reports whether a value of type t holds a Go pointer the
// collector must scan.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Chan, reflect.Func,
		reflect.Interface, reflect.Slice, reflect.String:
		return true
	case reflect.Array:
		return hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}

// TestRecordsHoldNoPointers guards the overlay's layout: a definition,
// a use record, a φ and the element of every ID-indexed row are plain
// integers, so the collector scans none of them, however large the
// overlay grows. The one pointer table is instrs, one interface per
// instruction the IR holds anyway.
func TestRecordsHoldNoPointers(t *testing.T) {
	for _, typ := range []reflect.Type{reflect.TypeOf(Definition{}), reflect.TypeOf(Use{}), reflect.TypeOf(Phi{})} {
		if hasPointers(typ) {
			t.Errorf("%s holds a pointer", typ)
		}
	}
	st := reflect.TypeOf(SSA{})
	rows := 0
	for i := 0; i < st.NumField(); i++ {
		f := st.Field(i)
		if f.Type == reflect.TypeOf(table{}) {
			rows++
			for j := 0; j < f.Type.NumField(); j++ {
				if elem := f.Type.Field(j).Type.Elem(); hasPointers(elem) {
					t.Errorf("row table %s: element %s holds a pointer", f.Name, elem)
				}
			}
			continue
		}
		if f.Type.Kind() == reflect.Slice {
			elem := f.Type.Elem()
			if elem.Kind() == reflect.Slice { // Phis: one header per block
				elem = elem.Elem()
			}
			if f.Name != "instrs" && hasPointers(elem) {
				t.Errorf("SSA.%s: element %s holds a pointer", f.Name, elem)
			}
		}
	}
	// useDefs, instrDefs, globalsAtCall, termUses, retSnaps.
	if rows != 5 {
		t.Errorf("found %d row tables, want 5", rows)
	}
}
