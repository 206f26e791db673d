package persist

import (
	"reflect"
	"testing"

	"repro/internal/trace"
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
func valueType[V any](*trace.Table[V]) reflect.Type { return reflect.TypeFor[V]() }

// TestRetainedRecordsArePointerFree: what the crash image retains per
// line, epoch and store — the line table and states, the sealed epochs,
// their histories and word indexes, and the retirement work lists —
// holds no pointer, so a long windowed execution's crash image is
// memory the garbage collector never scans.
func TestRetainedRecordsArePointerFree(t *testing.T) {
	var im Image
	types := []struct {
		name string
		typ  reflect.Type
	}{
		{"line table", valueType(&im.lines)},
		{"line states", reflect.TypeOf(im.states).Elem()},
		{"touched lines", reflect.TypeOf(im.all).Elem()},
		{"sealed epochs", reflect.TypeOf(im.eps.buf).Elem()},
		{"epoch history", reflect.TypeOf(im.hist.buf).Elem()},
		{"word index", reflect.TypeOf(im.pos.buf).Elem()},
		{"pool free lists", reflect.TypeOf(im.hist.free).Elem().Elem()},
		{"dirty lines", reflect.TypeOf(im.dirty).Elem()},
		{"dirty epochs", reflect.TypeOf(im.dirtySealed).Elem()},
		{"sealing cursors", reflect.TypeOf(im.sealing).Elem()},
	}
	for _, c := range types {
		for _, p := range pointerPaths(c.typ, c.typ.String()) {
			t.Errorf("%s: %s is scanned by the garbage collector", c.name, p)
		}
	}
}
