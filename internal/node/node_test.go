package node

import (
	"testing"

	"layeredsg/internal/numa"
	"layeredsg/internal/stats"
)

func recorder(t *testing.T) *stats.Recorder {
	t.Helper()
	topo, err := numa.New(2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := numa.Pin(topo, 2)
	if err != nil {
		t.Fatal(err)
	}
	return stats.NewRecorder(m, nil)
}

func TestNewDataInitialState(t *testing.T) {
	n := NewArena[int, string](2, 4).NewData(7, "seven", 3, 0b101, Owner{Thread: 1, Node: 1}, 42, 1000)
	if n.Key() != 7 || n.Value() != "seven" || !n.IsData() {
		t.Fatal("payload wrong")
	}
	if n.TopLevel() != 3 || n.Vector() != 0b101 {
		t.Fatal("level/vector wrong")
	}
	if n.OwnerThread() != 1 || n.OwnerNode() != 1 || n.ID() != 42 || n.AllocTS() != 1000 {
		t.Fatal("ownership wrong")
	}
	if n.Inserted() {
		t.Fatal("new node already inserted")
	}
	// All levels unmarked, valid, nil-successor (the lazy protocol requires
	// allocation as unmarked and valid).
	for level := 0; level <= 3; level++ {
		snap := n.RawLoad(level)
		if snap.Next != nil || snap.Marked || !snap.Valid {
			t.Fatalf("level %d initial state %+v", level, snap)
		}
	}
	n.MarkInserted()
	if !n.Inserted() {
		t.Fatal("MarkInserted did not stick")
	}
}

func TestSentinelOrdering(t *testing.T) {
	a := NewArena[int, string](1, 3)
	tail := a.NewTail(2, 1)
	head := a.NewHead(2, 0b11, tail, 2)
	data := a.NewData(5, "", 2, 0, Owner{}, 3, 0)

	if !head.LessThan(-1 << 60) {
		t.Fatal("head not below everything")
	}
	if tail.LessThan(1 << 60) {
		t.Fatal("tail below a key")
	}
	if !data.LessThan(6) || data.LessThan(5) || data.LessThan(4) {
		t.Fatal("data ordering wrong")
	}
	if head.KeyEquals(0) || tail.KeyEquals(0) {
		t.Fatal("sentinel KeyEquals")
	}
	if !data.KeyEquals(5) || data.KeyEquals(4) {
		t.Fatal("data KeyEquals wrong")
	}
	if head.Kind() != Head || tail.Kind() != Tail {
		t.Fatal("kinds wrong")
	}
	if head.Vector() != 0b11 {
		t.Fatal("head label lost")
	}
	// A head carries a single reference for the one level it fronts.
	if head.RawNext(2) != tail {
		t.Fatal("head not pointing at tail at its own level")
	}
	// A tail's single reference stands in for every level (traversals only
	// ever read its mark bit).
	for level := 0; level <= 2; level++ {
		if tail.RawMarked(level) {
			t.Fatalf("tail level %d marked", level)
		}
	}
}

func TestHeadAccessOutsideItsLevelPanics(t *testing.T) {
	a := NewArena[int, string](1, 3)
	tail := a.NewTail(2, 1)
	head := a.NewHead(2, 0, tail, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("accessing a head outside the level it fronts did not panic")
		}
	}()
	head.RawNext(0)
}

func TestInstrumentedAccessRecords(t *testing.T) {
	r := recorder(t)
	tr := r.ThreadRecorder(0) // node 0
	a := NewArena[int, int](2, 2)
	tail := a.NewTail(1, 1)
	// Owner on node 1 → accesses from thread 0 are remote.
	n := a.NewData(1, 1, 1, 0, Owner{Thread: 1, Node: 1}, 2, 0)
	n.RawStore(0, tail, false, true)

	if n.Next(0, tr) != tail {
		t.Fatal("Next wrong")
	}
	n.Load(1, tr)
	n.Marked(0, tr)
	n.MarkValid(0, tr)
	tr.Op()

	s := r.Summary()
	if s.RemoteReadsPerOp != 4 || s.LocalReadsPerOp != 0 {
		t.Fatalf("reads = %v local / %v remote, want 0/4", s.LocalReadsPerOp, s.RemoteReadsPerOp)
	}

	if !n.CASNext(0, tail, nil, tr) {
		t.Fatal("CASNext failed")
	}
	if n.CASNext(0, tail, nil, tr) {
		t.Fatal("stale CASNext succeeded")
	}
	s = r.Summary()
	if s.RemoteCASPerOp != 2 {
		t.Fatalf("cas/op = %v want 2", s.RemoteCASPerOp)
	}
	if s.CASSuccessRate != 0.5 {
		t.Fatalf("success rate = %v want 0.5", s.CASSuccessRate)
	}
}

func TestRawAccessDoesNotRecord(t *testing.T) {
	r := recorder(t)
	tr := r.ThreadRecorder(0)
	n := NewArena[int, int](2, 2).NewData(1, 1, 1, 0, Owner{Thread: 1, Node: 1}, 2, 0)
	n.RawNext(0)
	n.RawLoad(0)
	n.RawMarked(0)
	n.RawMarkValid()
	n.RawCASNext(0, nil, nil)
	tr.Op()
	s := r.Summary()
	if s.RemoteReadsPerOp != 0 || s.RemoteCASPerOp != 0 {
		t.Fatalf("raw access recorded: %+v", s)
	}
}

func TestCASMarkValidFlow(t *testing.T) {
	r := recorder(t)
	tr := r.ThreadRecorder(0)
	n := NewArena[int, int](1, 1).NewData(1, 1, 0, 0, Owner{}, 1, 0)
	// Remove: valid→invalid.
	if !n.CASMarkValid(0, false, true, false, false, tr) {
		t.Fatal("invalidate failed")
	}
	// Revive: invalid→valid.
	if !n.CASMarkValid(0, false, false, false, true, tr) {
		t.Fatal("revive failed")
	}
	// Invalidate again, then retire.
	if !n.CASMarkValid(0, false, true, false, false, tr) {
		t.Fatal("re-invalidate failed")
	}
	if !n.CASMarkValid(0, false, false, true, false, tr) {
		t.Fatal("retire failed")
	}
	m, v := n.MarkValid(0, tr)
	if !m || v {
		t.Fatalf("final state %v,%v want marked invalid", m, v)
	}
	// Marked reference: CASValid/CASMark on it with stale expectations fail.
	if n.CASMarkValid(0, false, false, false, true, tr) {
		t.Fatal("revive of marked node succeeded")
	}
}

func TestHeadOwnerAttribution(t *testing.T) {
	a := NewArena[int, int](1, 1)
	tail := a.NewTail(0, 1)
	head := a.NewHead(0, 0, tail, 2)
	if head.OwnerThread() != HeadOwner.Thread || head.OwnerNode() != HeadOwner.Node {
		t.Fatal("head not attributed to the conventional owner")
	}
}
