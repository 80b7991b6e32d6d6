package epoch

import (
	"sync"
	"testing"
)

func TestNilDomainIsInert(t *testing.T) {
	var d *Domain
	if d.Epoch() != 0 || d.Advance() != 0 || d.NextSeq() != 0 || d.Seq() != 0 {
		t.Fatal("nil domain counters must stay 0")
	}
	if d.MinPinned() != NoSequence || d.MinSnapshotSeq() != NoSequence {
		t.Fatal("nil domain minima must be NoSequence")
	}
	if !d.SafeToRetire(42) {
		t.Fatal("nil domain must always allow retirement")
	}
	if d.Acquire() != nil {
		t.Fatal("nil domain must hand out nil tickets")
	}
	var nilTicket *Ticket
	nilTicket.Close()
	if nilTicket.Seq() != 0 || nilTicket.Epoch() != 0 {
		t.Fatal("nil ticket accessors must return 0")
	}
	p := d.Register()
	if p != nil {
		t.Fatal("nil domain must register nil pins")
	}
	if p.Pin() != 0 {
		t.Fatal("nil pin must pin epoch 0")
	}
	p.Unpin()
	d.WaitNoSnapshots()
	if st := d.Stats(); st != (Stats{}) {
		t.Fatalf("nil domain stats = %+v", st)
	}
}

func TestPinTracksEpoch(t *testing.T) {
	d := NewDomain(2)
	p1, p2 := d.Register(), d.Register()
	if e := p1.Pin(); e != 1 {
		t.Fatalf("first pin epoch = %d, want 1", e)
	}
	d.Advance()
	if e := p2.Pin(); e != 2 {
		t.Fatalf("pin after advance = %d, want 2", e)
	}
	if min := d.MinPinned(); min != 1 {
		t.Fatalf("MinPinned = %d, want 1", min)
	}
	p1.Unpin()
	if min := d.MinPinned(); min != 2 {
		t.Fatalf("MinPinned after release = %d, want 2", min)
	}
	p2.Unpin()
	if min := d.MinPinned(); min != NoSequence {
		t.Fatalf("MinPinned with no pins = %d, want NoSequence", min)
	}
}

func TestPinNesting(t *testing.T) {
	d := NewDomain(1)
	p := d.Register()
	outer := p.Pin()
	d.Advance()
	if inner := p.Pin(); inner != outer {
		t.Fatalf("nested pin = %d, want outer %d", inner, outer)
	}
	p.Unpin()
	if min := d.MinPinned(); min != outer {
		t.Fatalf("MinPinned after inner unpin = %d, want %d still held", min, outer)
	}
	p.Unpin()
	if min := d.MinPinned(); min != NoSequence {
		t.Fatalf("MinPinned after outer unpin = %d, want NoSequence", min)
	}
}

// TestRegisterFillsTable: NewDomain sizes the participant table once,
// Register hands out distinct slots that MinPinned scans, and a Register
// past the table panics.
func TestRegisterFillsTable(t *testing.T) {
	const participants = 8
	d := NewDomain(participants)
	pins := make([]*Pin, participants)
	for i := range pins {
		pins[i] = d.Register()
	}
	// Pin them all at distinct epochs: MinPinned sees the oldest.
	for i, p := range pins {
		p.Pin()
		if i < len(pins)-1 {
			d.Advance()
		}
	}
	if got := d.MinPinned(); got != 1 {
		t.Fatalf("MinPinned over the table = %d, want 1", got)
	}
	pins[0].Unpin()
	if got := d.MinPinned(); got != 2 {
		t.Fatalf("MinPinned after the oldest unpinned = %d, want 2", got)
	}
	for _, p := range pins[1:] {
		p.Unpin()
	}
	if got := d.MinPinned(); got != NoSequence {
		t.Fatalf("MinPinned after unpin = %d, want NoSequence", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Register past the table did not panic")
		}
	}()
	d.Register()
}

func TestSafeToRetirePendingDeadStamp(t *testing.T) {
	d := NewDomain(1)
	// dead == 0 (removal invalidated, stamp pending): retirable only while no
	// snapshot is live — the stamp it will draw exceeds any live snapshot's
	// sequence, so a live snapshot may still need the node.
	if !d.SafeToRetire(0) {
		t.Fatal("pending dead stamp with no snapshots must be retirable")
	}
	tk := d.Acquire()
	if d.SafeToRetire(0) {
		t.Fatal("pending dead stamp must not be retirable while a snapshot is live")
	}
	tk.Close()
	if !d.SafeToRetire(0) {
		t.Fatal("pending dead stamp must be retirable again after the snapshot closes")
	}
}

func TestSnapshotTicketGatesRetirement(t *testing.T) {
	d := NewDomain(1)
	d.NextSeq() // 1
	d.NextSeq() // 2
	tk := d.Acquire()
	if tk.Seq() != 2 {
		t.Fatalf("ticket seq = %d, want 2", tk.Seq())
	}
	dead := d.NextSeq() // 3: a removal after the snapshot
	if d.SafeToRetire(dead) {
		t.Fatal("retirement of a node the snapshot still needs must be blocked")
	}
	// A node dead at or before the snapshot's sequence is invisible to it.
	if !d.SafeToRetire(2) {
		t.Fatal("retirement of a node dead at the snapshot's own seq must be allowed")
	}
	tk.Close()
	if !d.SafeToRetire(dead) {
		t.Fatal("retirement must unblock once the snapshot closes")
	}
	tk.Close() // idempotent
}

func TestSnapshotTicketFreezesEpoch(t *testing.T) {
	d := NewDomain(1)
	d.Advance() // epoch 2
	tk := d.Acquire()
	if tk.Epoch() != 2 {
		t.Fatalf("ticket epoch = %d, want 2", tk.Epoch())
	}
	d.Advance()
	if min := d.MinPinned(); min != 2 {
		t.Fatalf("MinPinned with open ticket = %d, want 2", min)
	}
	if n := d.LiveSnapshots(); n != 1 {
		t.Fatalf("LiveSnapshots = %d, want 1", n)
	}
	tk.Close()
	if min := d.MinPinned(); min != NoSequence {
		t.Fatalf("MinPinned after close = %d, want NoSequence", min)
	}
}

func TestMinOverManyTickets(t *testing.T) {
	d := NewDomain(1)
	var tickets []*Ticket
	for i := 0; i < 5; i++ {
		d.NextSeq()
		tickets = append(tickets, d.Acquire())
	}
	if min := d.MinSnapshotSeq(); min != 1 {
		t.Fatalf("MinSnapshotSeq = %d, want 1", min)
	}
	tickets[0].Close()
	if min := d.MinSnapshotSeq(); min != 2 {
		t.Fatalf("MinSnapshotSeq after first close = %d, want 2", min)
	}
	for _, tk := range tickets[1:] {
		tk.Close()
	}
	if min := d.MinSnapshotSeq(); min != NoSequence {
		t.Fatalf("MinSnapshotSeq after all closed = %d, want NoSequence", min)
	}
}

func TestWaitNoSnapshots(t *testing.T) {
	d := NewDomain(1)
	tk := d.Acquire()
	released := make(chan struct{})
	done := make(chan struct{})
	go func() {
		d.WaitNoSnapshots()
		select {
		case <-released:
		default:
			t.Error("WaitNoSnapshots returned before the ticket closed")
		}
		close(done)
	}()
	close(released)
	tk.Close()
	<-done
}

func TestStats(t *testing.T) {
	d := NewDomain(2)
	p := d.Register()
	p.Pin() // epoch 1
	d.Advance()
	d.Advance() // epoch 3
	d.NextSeq()
	tk := d.Acquire()
	st := d.Stats()
	if st.Epoch != 3 || st.MinPinned != 1 || st.PinLag != 2 || st.Seq != 1 || st.LiveSnapshots != 1 {
		t.Fatalf("stats = %+v", st)
	}
	p.Unpin()
	tk.Close()
	st = d.Stats()
	if st.MinPinned != 0 || st.PinLag != 0 || st.LiveSnapshots != 0 {
		t.Fatalf("idle stats = %+v", st)
	}
}

// TestConcurrentPinReclaimRace hammers Pin/Unpin against Advance/MinPinned:
// the invariant under test is that a pin established while an entry was
// retired at epoch e keeps MinPinned <= e+1 — i.e. the store-recheck loop
// never publishes a stale pin the reclaimer has already advanced past.
func TestConcurrentPinReclaimRace(t *testing.T) {
	const pinners = 4
	d := NewDomain(pinners)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < pinners; i++ {
		p := d.Register()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				e := p.Pin()
				if min := d.MinPinned(); min > e {
					t.Errorf("MinPinned %d ran past own live pin %d", min, e)
					p.Unpin()
					return
				}
				p.Unpin()
			}
		}()
	}
	for i := 0; i < 10000; i++ {
		d.Advance()
		d.MinPinned()
	}
	close(stop)
	wg.Wait()
}
