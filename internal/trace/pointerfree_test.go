package trace

import (
	"reflect"
	"testing"
)

// pointerPaths returns the field path of every part of t the garbage
// collector has to scan: pointers, slices, maps, interfaces, strings,
// channels and funcs.
func pointerPaths(t reflect.Type, path string) []string {
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
		reflect.Interface, reflect.String, reflect.Chan, reflect.Func:
		return []string{path + " (" + t.String() + ")"}
	case reflect.Array:
		return pointerPaths(t.Elem(), path+"[i]")
	case reflect.Struct:
		var out []string
		for i := range t.NumField() {
			f := t.Field(i)
			out = append(out, pointerPaths(f.Type, path+"."+f.Name)...)
		}
		return out
	}
	return nil
}

// valueType is the value type of a Table.
func valueType[V any](*Table[V]) reflect.Type { return reflect.TypeFor[V]() }

// TestRetainedRecordsArePointerFree: what the trace retains about its
// stores — the records in their arena chunks, the thread rows, the
// per-word lists, the commit lists, the initial stores, limbo, the
// sweep's root and unpin lists and the arena free list — holds no
// pointer, so a long windowed execution's store memory is memory the
// garbage collector never scans.
func TestRetainedRecordsArePointerFree(t *testing.T) {
	var tr Trace
	var sub SubExec
	var row threadRow
	types := []struct {
		name string
		typ  reflect.Type
	}{
		{"Store", reflect.TypeFor[Store]()},
		{"store arena chunk", reflect.TypeOf(tr.stores.chunks).Elem().Elem()},
		{"store arena free", reflect.TypeOf(tr.stores.free).Elem()},
		{"thread row", reflect.TypeOf(row.stores).Elem()},
		{"word list", valueType(&sub.byLoc)},
		{"commit list", reflect.TypeOf(sub.stores).Elem()},
		{"initials", valueType(&tr.initials)},
		{"initial list", reflect.TypeOf(tr.initList).Elem()},
		{"limbo", reflect.TypeOf(tr.limbo).Elem()},
		{"roots", reflect.TypeOf(tr.roots).Elem()},
		{"unpinned", reflect.TypeOf(tr.unpinned).Elem()},
		{"spill-table freelist", reflect.TypeOf(tr.spillFree).Elem()},
	}
	for _, c := range types {
		for _, p := range pointerPaths(c.typ, c.typ.String()) {
			t.Errorf("%s: %s is scanned by the garbage collector", c.name, p)
		}
	}
}
