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
	if got, ok := s.HashFind(10); !ok || got.N != n || got.ID != n.ID() {
		t.Fatal("hash miss after Put")
	}
	if it := s.Floor(10); !it.Valid() || it.Value().N != n {
		t.Fatal("tree miss after Put")
	}
	if s.TreeLen() != 1 || s.HashLen() != 1 {
		t.Fatal("lengths wrong")
	}
	s.Erase(10)
	if _, ok := s.HashFind(10); ok {
		t.Fatal("hash hit after Erase")
	}
	if s.Floor(10).Valid() {
		t.Fatal("tree hit after Erase")
	}
}

func TestPutHashOnly(t *testing.T) {
	s := New[int64, int64]()
	n := mkNode(5)
	s.PutHashOnly(5, n)
	if _, ok := s.HashFind(5); !ok {
		t.Fatal("hash miss")
	}
	if s.Floor(5).Valid() {
		t.Fatal("hash-only entry leaked into the ordered view")
	}
	if s.TreeLen() != 0 || s.HashLen() != 1 {
		t.Fatal("lengths wrong")
	}
}

func TestFloorAndBackwardTraversal(t *testing.T) {
	s := New[int64, int64]()
	for _, k := range []int64{10, 20, 30} {
		s.Put(k, mkNode(k))
	}
	it := s.Floor(25)
	if !it.Valid() || it.Key() != 20 {
		t.Fatalf("Floor(25) = %v", it.Valid())
	}
	prev := it.Prev()
	if !prev.Valid() || prev.Key() != 10 {
		t.Fatal("Prev wrong")
	}
	if prev.Prev().Valid() {
		t.Fatal("Prev past minimum valid")
	}
	if s.Floor(5).Valid() {
		t.Fatal("Floor below minimum valid")
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
