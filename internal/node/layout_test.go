package node

import (
	"reflect"
	"testing"
	"unsafe"
)

// TestNodeLayout guards the hot/cold layout: Node[int64,int64] is two cache
// lines, and everything a descent hop or an index hit reads — the key, the
// kind, the arena pointer At needs, the life ID LiveAs checks and the low
// level words — ends within the first 64 B. A field added later in the
// wrong place fails here instead of silently splitting the hot line.
func TestNodeLayout(t *testing.T) {
	var n Node[int64, int64]
	if got := unsafe.Sizeof(n); got != 128 {
		t.Fatalf("Node[int64,int64] is %d B, want 128", got)
	}
	const line = 64
	hot := []struct {
		name string
		end  uintptr
	}{
		{"key", unsafe.Offsetof(n.key) + unsafe.Sizeof(n.key)},
		{"kind", unsafe.Offsetof(n.kind) + unsafe.Sizeof(n.kind)},
		{"ar", unsafe.Offsetof(n.ar) + unsafe.Sizeof(n.ar)},
		{"id", unsafe.Offsetof(n.id) + unsafe.Sizeof(n.id)},
		{"w[0..2]", unsafe.Offsetof(n.w) + 3*unsafe.Sizeof(n.w[0])},
	}
	for _, f := range hot {
		if f.end > line {
			t.Errorf("%s ends at byte %d, outside the first cache line", f.name, f.end)
		}
	}
	// One pointer per node: a second pointer slot measured slower in the
	// GC's mark phase (DESIGN.md §7).
	typ := reflect.TypeOf((*Node[int64, int64])(nil)).Elem()
	var pointers []string
	for i := 0; i < typ.NumField(); i++ {
		switch typ.Field(i).Type.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
			reflect.Chan, reflect.Func, reflect.Interface, reflect.String:
			pointers = append(pointers, typ.Field(i).Name)
		}
	}
	if len(pointers) != 1 {
		t.Fatalf("Node[int64,int64] has pointer fields %v, want exactly one", pointers)
	}
}

// TestInsertedBitIndependent checks that the inserted flag, a bit of the
// maintenance word, survives every other bit being set and cleared, and that
// a freed and reused slot starts its next life uninserted.
func TestInsertedBitIndependent(t *testing.T) {
	a := NewArena[int64, int64](1, 2)
	n := a.NewData(1, 1, 1, 0, Owner{}, 1, 0)
	n.MarkInserted()
	for bit := MaintFinishClaimed; bit < MaintInserted; bit <<= 1 {
		if !n.TrySetMaint(bit) || !n.Inserted() {
			t.Fatalf("setting bit %#x lost the inserted flag", bit)
		}
		n.ClearMaint(bit)
		if !n.Inserted() || n.MaintHas(bit) {
			t.Fatalf("clearing bit %#x lost the inserted flag or kept the bit", bit)
		}
	}
	if n.maint.Load() != MaintInserted {
		t.Fatalf("maint = %#x, want only MaintInserted", n.maint.Load())
	}
	a.Free(n)
	r := a.NewData(2, 2, 1, 0, Owner{}, 2, 0)
	if r != n {
		t.Fatal("freed slot was not reused")
	}
	if r.Inserted() {
		t.Fatal("reused slot reports Inserted")
	}
}
