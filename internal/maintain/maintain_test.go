package maintain

import (
	"sync/atomic"
	"testing"
	"time"

	"layeredsg/internal/epoch"
	"layeredsg/internal/node"
	"layeredsg/internal/numa"
	"layeredsg/internal/skipgraph"
)

const testCommission = time.Millisecond

// harness bundles an engine over a small lazy structure on a fake 2-socket
// machine (2 threads per socket: stripes 0,1 on socket 0 and 2,3 on
// socket 1) with a hand-advanced structure clock. The structure's epoch
// domain gates retirement as core.New wires it.
type harness struct {
	sg      *skipgraph.SG[int64, int64]
	machine *numa.Machine
	eng     *Engine[int64, int64]
	clock   *atomic.Int64
	res     *skipgraph.SearchResult[int64, int64]
}

func newHarness(t *testing.T, cfg Config[int64, int64]) *harness {
	t.Helper()
	var clock atomic.Int64
	clock.Store(1)
	domain := epoch.NewDomain(4)
	sg, err := skipgraph.New[int64, int64](skipgraph.Config{
		MaxLevel:         1,
		Lazy:             true,
		CommissionPeriod: testCommission,
		Clock:            clock.Load,
		CanRetire:        domain.SafeToRetire,
	})
	if err != nil {
		t.Fatalf("skipgraph.New: %v", err)
	}
	machine := testMachine(t)
	cfg.SG = sg
	cfg.Machine = machine
	cfg.Commission = testCommission
	cfg.Domain = domain
	eng, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(eng.Close)
	return &harness{sg: sg, machine: machine, eng: eng, clock: &clock, res: sg.NewSearchResult()}
}

// insert links a key at level 0 owned by the given stripe. finish controls
// whether the upper levels are linked too (a finished insert) or left for
// maintenance (the lazy protocol's deferred state).
func (h *harness) insert(t *testing.T, key int64, stripe int32, finish bool) *node.Node[int64, int64] {
	t.Helper()
	owner := node.Owner{Thread: stripe, Node: int32(h.machine.NodeOf(int(stripe)))}
	for {
		if h.sg.LazyRelinkSearch(key, nil, 0, h.res, nil) {
			t.Fatalf("insert %d: already present", key)
		}
		n := h.sg.NewNode(key, key, 0, owner, 1)
		if !h.sg.LinkLevel0(h.res, n, nil) {
			continue
		}
		if finish && !h.sg.FinishInsert(n, nil, nil, h.res, nil) {
			t.Fatalf("insert %d: finishInsert failed", key)
		}
		return n
	}
}

// invalidate logically removes the node (clears its valid bit), the state
// checkRetire acts on.
func (h *harness) invalidate(t *testing.T, n *node.Node[int64, int64]) {
	t.Helper()
	if done, removed := h.sg.RemoveHelper(n, nil); !done || !removed {
		t.Fatalf("invalidate %d: done=%v removed=%v", n.Key(), done, removed)
	}
}

func testMachine(t *testing.T) *numa.Machine {
	t.Helper()
	topo, err := numa.New(2, 2, 1)
	if err != nil {
		t.Fatalf("numa.New: %v", err)
	}
	machine, err := numa.Pin(topo, 4)
	if err != nil {
		t.Fatalf("numa.Pin: %v", err)
	}
	return machine
}

func TestNewRequiresDomain(t *testing.T) {
	sg, err := skipgraph.New[int64, int64](skipgraph.Config{Lazy: true, CommissionPeriod: testCommission})
	if err != nil {
		t.Fatalf("skipgraph.New: %v", err)
	}
	if _, err := New(Config[int64, int64]{SG: sg, Machine: testMachine(t), Manual: true}); err == nil {
		t.Fatal("New accepted a nil Domain")
	}
}

func TestFinishInsertDrainAndDedup(t *testing.T) {
	h := newHarness(t, Config[int64, int64]{Manual: true})
	n := h.insert(t, 10, 0, false)
	if n.Inserted() {
		t.Fatal("node already finished")
	}
	if !h.eng.EnqueueFinishInsert(n) {
		t.Fatal("enqueue rejected")
	}
	if !h.eng.EnqueueFinishInsert(n) {
		t.Fatal("duplicate enqueue not reported as handled")
	}
	if d := h.eng.QueueDepth(); d != 1 {
		t.Fatalf("queue depth %d after dedup, want 1", d)
	}
	if got := h.eng.Flush(); got != 1 {
		t.Fatalf("Flush executed %d items, want 1", got)
	}
	if !n.Inserted() {
		t.Fatal("node not finished after drain")
	}
	if err := h.sg.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	s := h.eng.Stats()
	if s.Enqueues != 1 || s.Drains != 1 || s.QueueDepth != 0 {
		t.Fatalf("stats %+v", s)
	}
}

func TestBackpressureDropsToInline(t *testing.T) {
	h := newHarness(t, Config[int64, int64]{Manual: true, QueueCap: 1})
	// Two unfinished nodes on the same stripe: the second enqueue must be
	// rejected, and its dedup bit released so it can be re-enqueued later.
	a := h.insert(t, 1, 0, false)
	b := h.insert(t, 2, 0, false)
	if !h.eng.EnqueueFinishInsert(a) {
		t.Fatal("first enqueue rejected")
	}
	if h.eng.EnqueueFinishInsert(b) {
		t.Fatal("enqueue into a full queue accepted")
	}
	if s := h.eng.Stats(); s.Drops != 1 {
		t.Fatalf("drops %d, want 1", s.Drops)
	}
	if b.MaintHas(node.MaintFinishQueued) {
		t.Fatal("dropped item left its dedup bit set")
	}
	h.eng.Flush()
	if !h.eng.EnqueueFinishInsert(b) {
		t.Fatal("re-enqueue after drain rejected")
	}
	h.eng.Flush()
	if !a.Inserted() || !b.Inserted() {
		t.Fatal("nodes not finished")
	}
}

func TestRetireLifecycle(t *testing.T) {
	h := newHarness(t, Config[int64, int64]{Manual: true})

	// Revival: an invalid node re-validated before its commission expires is
	// dropped from the queue with its bit released.
	rev := h.insert(t, 20, 1, true)
	h.invalidate(t, rev)
	if !h.eng.EnqueueRetire(rev) {
		t.Fatal("enqueue rejected")
	}
	// Revive (an insert of the same key flips valid back).
	if !rev.CASValid(0, false, true, nil) {
		t.Fatal("revive failed")
	}
	h.clock.Add(int64(2 * testCommission))
	if h.eng.Flush() != 1 {
		t.Fatal("revived item not drained")
	}
	if marked, valid := rev.RawMarkValid(); marked || !valid {
		t.Fatalf("revived node marked=%v valid=%v", marked, valid)
	}
	if rev.MaintHas(node.MaintRetireQueued) {
		t.Fatal("revived node kept its retire bit")
	}

	// Expiry: an invalid node past its commission is retired (marked) and
	// physically unlinked from the bottom list.
	gone := h.insert(t, 21, 1, true)
	h.invalidate(t, gone)
	if !h.eng.EnqueueRetire(gone) {
		t.Fatal("enqueue rejected")
	}
	// Still in commission: Flush must requeue, not retire.
	if got := h.eng.Flush(); got != 0 {
		t.Fatalf("in-commission retire executed (%d items)", got)
	}
	if d := h.eng.QueueDepth(); d != 1 {
		t.Fatalf("queue depth %d after requeue, want 1", d)
	}
	if marked, _ := gone.RawMarkValid(); marked {
		t.Fatal("node retired inside its commission period")
	}
	h.clock.Add(int64(2 * testCommission))
	if got := h.eng.Flush(); got != 1 {
		t.Fatalf("expired retire not executed (%d items)", got)
	}
	if marked, _ := gone.RawMarkValid(); !marked {
		t.Fatal("expired node not retired")
	}
	for cur := h.sg.BottomHead().RawNext(0); cur != nil && cur.IsData(); cur = cur.RawNext(0) {
		if cur == gone {
			t.Fatal("retired node still physically linked at level 0")
		}
	}
	if err := h.sg.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestRelinkDrain(t *testing.T) {
	h := newHarness(t, Config[int64, int64]{Manual: true})
	a := h.insert(t, 30, 0, true)
	h.insert(t, 31, 0, true)
	h.invalidate(t, a)
	h.clock.Add(int64(2 * testCommission))
	if !h.sg.Retire(a, nil) {
		t.Fatal("Retire failed")
	}
	// a is marked but still linked; a relink item physically unlinks it.
	if !h.eng.EnqueueRelink(a) {
		t.Fatal("enqueue rejected")
	}
	if h.eng.Flush() != 1 {
		t.Fatal("relink not drained")
	}
	for cur := h.sg.BottomHead().RawNext(0); cur != nil && cur.IsData(); cur = cur.RawNext(0) {
		if cur == a {
			t.Fatal("marked node still linked after relink drain")
		}
	}
	if a.MaintHas(node.MaintRelinkQueued) {
		t.Fatal("relink bit not released")
	}
}

func TestHelpersDrainAndSteal(t *testing.T) {
	// One helper, pinned to socket 0; work owned by stripe 2 (socket 1) must
	// still drain and be counted as a steal.
	h := newHarness(t, Config[int64, int64]{Helpers: 1, ParkInterval: 50 * time.Microsecond})
	n := h.insert(t, 40, 2, false)
	if !h.eng.EnqueueFinishInsert(n) {
		t.Fatal("enqueue rejected")
	}
	deadline := time.Now().Add(5 * time.Second)
	for !n.Inserted() {
		if time.Now().After(deadline) {
			t.Fatal("helper never drained the item")
		}
		time.Sleep(100 * time.Microsecond)
	}
	s := h.eng.Stats()
	if s.Steals != 1 {
		t.Fatalf("steals %d, want 1", s.Steals)
	}
}

func TestCloseDrainsAndRejects(t *testing.T) {
	h := newHarness(t, Config[int64, int64]{Helpers: 2})
	var nodes []*node.Node[int64, int64]
	for i := int64(0); i < 32; i++ {
		n := h.insert(t, 100+i, int32(i%4), false)
		h.eng.EnqueueFinishInsert(n)
		nodes = append(nodes, n)
	}
	// An in-commission retire item: Close must release it for the inline
	// protocol, not retire it early.
	held := h.insert(t, 200, 0, true)
	h.invalidate(t, held)
	h.eng.EnqueueRetire(held)

	h.eng.Close()
	if !h.eng.Closed() {
		t.Fatal("Closed() false after Close")
	}
	for _, n := range nodes {
		if !n.Inserted() {
			t.Fatalf("node %d not finished after Close drain", n.Key())
		}
	}
	if marked, _ := held.RawMarkValid(); marked {
		t.Fatal("in-commission node retired by Close")
	}
	if held.MaintHas(node.MaintRetireQueued) {
		t.Fatal("Close left the held node's retire bit set")
	}
	if h.eng.QueueDepth() != 0 {
		t.Fatalf("queue depth %d after Close", h.eng.QueueDepth())
	}
	if err := h.sg.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Post-close enqueues report failure so callers fall back inline.
	late := h.insert(t, 300, 0, false)
	if h.eng.EnqueueFinishInsert(late) {
		t.Fatal("enqueue accepted after Close")
	}
	h.eng.Close() // Idempotent.
}

func TestInlineClaimBeatsHelper(t *testing.T) {
	// If the owning thread claims the finish first (the inline getStart
	// path), the queued item must become a no-op.
	h := newHarness(t, Config[int64, int64]{Manual: true})
	n := h.insert(t, 50, 0, false)
	if !h.eng.EnqueueFinishInsert(n) {
		t.Fatal("enqueue rejected")
	}
	if !n.ClaimFinish() {
		t.Fatal("inline claim failed with no helper contending")
	}
	if !h.sg.FinishInsert(n, nil, nil, h.res, nil) {
		t.Fatal("inline FinishInsert failed")
	}
	if h.eng.Flush() != 1 {
		t.Fatal("queued item not drained")
	}
	if err := h.sg.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}
