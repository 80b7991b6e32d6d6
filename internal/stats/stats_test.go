package stats

import (
	"sync"
	"testing"

	"layeredsg/internal/numa"
)

func machine(t *testing.T, threads int) *numa.Machine {
	t.Helper()
	topo, err := numa.New(2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := numa.Pin(topo, threads)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNilRecorderIsSafe(t *testing.T) {
	var tr *ThreadRecorder
	tr.Read(0, 0, 1)
	tr.CAS(0, 0, 1, true)
	tr.Visit()
	tr.Search()
	tr.Op()
	if tr.Ops() != 0 {
		t.Fatal("nil recorder Ops != 0")
	}
}

func TestLocalRemoteClassification(t *testing.T) {
	m := machine(t, 4) // threads 0,1 on node 0; threads 2,3 on node 1
	r := NewRecorder(m, nil)
	tr := r.ThreadRecorder(0)
	if tr.Thread() != 0 || tr.Node() != 0 {
		t.Fatalf("placement wrong: thread %d node %d", tr.Thread(), tr.Node())
	}

	tr.Read(1, 0, 10) // same node → local
	tr.Read(2, 1, 11) // other node → remote
	tr.CAS(1, 0, 10, true)
	tr.CAS(2, 1, 11, false)
	tr.CAS(3, 1, 12, true)
	tr.Op()

	s := r.Summary()
	if s.Ops != 1 {
		t.Fatalf("ops = %d", s.Ops)
	}
	if s.LocalReadsPerOp != 1 || s.RemoteReadsPerOp != 1 {
		t.Fatalf("reads/op = %v/%v", s.LocalReadsPerOp, s.RemoteReadsPerOp)
	}
	if s.LocalCASPerOp != 1 || s.RemoteCASPerOp != 2 {
		t.Fatalf("cas/op = %v/%v", s.LocalCASPerOp, s.RemoteCASPerOp)
	}
	if want := 2.0 / 3.0; s.CASSuccessRate != want {
		t.Fatalf("cas success = %v want %v", s.CASSuccessRate, want)
	}
}

func TestNodesPerSearch(t *testing.T) {
	m := machine(t, 2)
	r := NewRecorder(m, nil)
	tr := r.ThreadRecorder(1)
	tr.Search()
	tr.Visit()
	tr.Visit()
	tr.Search()
	tr.Visit()
	if got := r.Summary().NodesPerSearch; got != 1.5 {
		t.Fatalf("nodes/search = %v want 1.5", got)
	}
}

func TestHeatmaps(t *testing.T) {
	m := machine(t, 3)
	r := NewRecorder(m, nil)
	r.ThreadRecorder(0).CAS(2, 1, 5, true)
	r.ThreadRecorder(0).CAS(2, 1, 5, true)
	r.ThreadRecorder(1).Read(0, 0, 6)

	cas := r.CASHeatmap()
	if cas[0][2] != 2 || cas[1][0] != 0 {
		t.Fatalf("cas heatmap wrong: %v", cas)
	}
	reads := r.ReadHeatmap()
	if reads[1][0] != 1 || reads[0][2] != 0 {
		t.Fatalf("read heatmap wrong: %v", reads)
	}
	// Returned matrices are copies.
	cas[0][2] = 99
	if r.CASHeatmap()[0][2] != 2 {
		t.Fatal("heatmap not copied")
	}
}

func TestNegativeOwnerIgnoredInHeatmap(t *testing.T) {
	m := machine(t, 2)
	r := NewRecorder(m, nil)
	r.ThreadRecorder(0).Read(-1, 0, 1) // anonymous owner: counted, not mapped
	if got := r.Summary().LocalReadsPerOp; got != 0 {
		// No ops yet; just ensure no panic and row untouched.
		t.Fatalf("unexpected reads/op %v", got)
	}
	if r.ReadHeatmap()[0][0] != 0 {
		t.Fatal("negative owner leaked into heatmap")
	}
}

func TestLocalityByDistance(t *testing.T) {
	m := machine(t, 4)
	r := NewRecorder(m, nil)
	// Thread 0 (node 0) hits thread 1 (node 0) and thread 2 (node 1).
	r.ThreadRecorder(0).CAS(1, 0, 1, true)
	r.ThreadRecorder(0).CAS(1, 0, 1, true)
	r.ThreadRecorder(0).CAS(2, 1, 2, true)
	byDist := r.LocalityByDistance(r.CASHeatmap())
	// Distance 10 pairs: 8 (2 threads/node choose ordered pairs incl self);
	// total local CAS 2 → 0.25 per pair. Distance 21 pairs: 8; total 1.
	if byDist[10] != 2.0/8.0 {
		t.Fatalf("local avg = %v", byDist[10])
	}
	if byDist[21] != 1.0/8.0 {
		t.Fatalf("remote avg = %v", byDist[21])
	}
}

type sinkRecorder struct {
	mu    sync.Mutex
	calls []struct {
		thread int
		line   uint64
		write  bool
	}
}

func (s *sinkRecorder) Access(thread int, line uint64, write bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls = append(s.calls, struct {
		thread int
		line   uint64
		write  bool
	}{thread, line, write})
}

func TestAccessSink(t *testing.T) {
	m := machine(t, 2)
	sink := &sinkRecorder{}
	r := NewRecorder(m, sink)
	r.ThreadRecorder(0).Read(1, 0, 42)
	r.ThreadRecorder(1).CAS(0, 0, 43, true)
	if len(sink.calls) != 2 {
		t.Fatalf("sink calls = %d", len(sink.calls))
	}
	if sink.calls[0] != (struct {
		thread int
		line   uint64
		write  bool
	}{0, 42, false}) {
		t.Fatalf("read call wrong: %+v", sink.calls[0])
	}
	if !sink.calls[1].write || sink.calls[1].line != 43 {
		t.Fatalf("cas call wrong: %+v", sink.calls[1])
	}
}

func TestConcurrentRecording(t *testing.T) {
	m := machine(t, 4)
	r := NewRecorder(m, nil)
	var wg sync.WaitGroup
	for th := 0; th < 4; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			tr := r.ThreadRecorder(th)
			for i := 0; i < 1000; i++ {
				tr.Read(int32((th+1)%4), int32(m.NodeOf((th+1)%4)), uint64(i))
				tr.CAS(int32(th), int32(m.NodeOf(th)), uint64(i), i%2 == 0)
				tr.Op()
			}
		}(th)
	}
	wg.Wait()
	s := r.Summary()
	if s.Ops != 4000 {
		t.Fatalf("ops = %d want 4000", s.Ops)
	}
	if s.CASSuccessRate != 0.5 {
		t.Fatalf("cas success = %v want 0.5", s.CASSuccessRate)
	}
}
