package local

import (
	"testing"

	"layeredsg/internal/node"
)

var testArena = node.NewArena[int64, int64](1, 1)

func mkNode(key int64) *node.Node[int64, int64] {
	return testArena.NewData(key, key, 0, 0, node.Owner{}, uint64(key), 0)
}

func TestPutEraseBothViews(t *testing.T) {
	s := New[int64, int64]()
	n := mkNode(10)
	s.Put(10, n)
	if _, own, ok := s.Below(10); !ok || own.N != n || own.ID != n.ID() {
		t.Fatal("own entry missing after Put")
	}
	if it, _, _ := s.Below(11); !it.Valid() || it.Value().N != n {
		t.Fatal("tree miss after Put")
	}
	if s.TreeLen() != 1 {
		t.Fatal("length wrong")
	}
	s.Erase(10)
	if _, _, ok := s.Below(10); ok {
		t.Fatal("own entry after Erase")
	}
	if it, _, _ := s.Below(11); it.Valid() {
		t.Fatal("tree hit after Erase")
	}
}

func TestFloorAndBackwardTraversal(t *testing.T) {
	s := New[int64, int64]()
	for _, k := range []int64{10, 20, 30} {
		s.Put(k, mkNode(k))
	}
	it, _, ok := s.Below(25)
	if !it.Valid() || it.Key() != 20 || ok {
		t.Fatalf("Below(25) = %v, own %v", it.Valid(), ok)
	}
	// The key's own entry is reported apart, never as the predecessor.
	if it, own, ok := s.Below(20); !ok || own.N.Key() != 20 || !it.Valid() || it.Key() != 10 {
		t.Fatalf("Below(20) = %v, own %v", it.Valid(), ok)
	}
	prev := it.Prev()
	if !prev.Valid() || prev.Key() != 10 {
		t.Fatal("Prev wrong")
	}
	if prev.Prev().Valid() {
		t.Fatal("Prev past minimum valid")
	}
	if it, _, _ := s.Below(10); it.Valid() {
		t.Fatal("Below the minimum valid")
	}
}

func TestAscend(t *testing.T) {
	s := New[int64, int64]()
	for _, k := range []int64{3, 1, 2} {
		s.Put(k, mkNode(k))
	}
	var got []int64
	s.Ascend(func(k int64, _ Ref[int64, int64]) bool {
		got = append(got, k)
		return true
	})
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("Ascend order: %v", got)
	}
}
