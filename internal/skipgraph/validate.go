package skipgraph

import (
	"fmt"

	"layeredsg/internal/membership"
	"layeredsg/internal/node"
)

// Validate checks the structural invariants of a quiescent skip graph — no
// concurrent operations may be in flight. It is the oracle behind the fuzz
// targets and torture tests:
//
//   - every (level, label) list walk reaches the tail within a bounded number
//     of steps (no cycles, no nil mid-list) and visits only data nodes;
//   - every node linked at level l spans that level (TopLevel >= l) and
//     belongs to the list its membership vector selects;
//   - keys are strictly increasing along the level-0 list, marked nodes
//     included (LinkLevel0 never links in front of a node holding the
//     inserted key), and non-decreasing along every upper list, strictly
//     among nodes unmarked at level 0 (at most one live node per key);
//   - every unmarked, fully inserted node is physically present in all of its
//     levels' lists (the relink optimization only ever bypasses nodes marked
//     at level 0).
//
// O(levels × nodes); for tests and tooling, never hot paths.
func (sg *SG[K, V]) Validate() error {
	// Bound every walk by the physical bottom-list size plus slack so a
	// corrupted next-cycle fails the check instead of hanging it.
	bottom := 0
	for n := sg.heads[0][0].RawNext(0); n != nil && n.Kind() != node.Tail; n = n.RawNext(0) {
		if bottom++; bottom > 1<<26 {
			return fmt.Errorf("skipgraph: bottom list exceeds 2^26 nodes (cycle?)")
		}
	}
	limit := bottom + 8

	present := make([]map[uint64]bool, sg.cfg.MaxLevel+1)
	for level := 0; level <= sg.cfg.MaxLevel; level++ {
		present[level] = make(map[uint64]bool)
		for label := range sg.heads[level] {
			if err := sg.validateList(level, label, limit, present[level]); err != nil {
				return err
			}
		}
	}

	for n := sg.heads[0][0].RawNext(0); n != nil && n.Kind() != node.Tail; n = n.RawNext(0) {
		if marked, _ := n.RawMarkValid(); marked || !n.Inserted() {
			continue
		}
		for level := 1; level <= n.TopLevel(); level++ {
			if !present[level][n.ID()] {
				return fmt.Errorf("skipgraph: live node %d (key %v, top level %d) missing from its level-%d list",
					n.ID(), n.Key(), n.TopLevel(), level)
			}
		}
	}
	return nil
}

// validateList walks one (level, label) list, checking per-list invariants
// and recording the IDs it sees into present.
func (sg *SG[K, V]) validateList(level, label, limit int, present map[uint64]bool) error {
	var prev, prevLive *node.Node[K, V]
	steps := 0
	for n := sg.heads[level][label].RawNext(level); n != nil; n = n.RawNext(level) {
		if n.Kind() == node.Tail {
			return nil
		}
		if !n.IsData() {
			return fmt.Errorf("skipgraph: level %d list %d: %v node %d linked mid-list", level, label, n.Kind(), n.ID())
		}
		if steps++; steps > limit {
			return fmt.Errorf("skipgraph: level %d list %d: walk exceeded %d steps (cycle?)", level, label, limit)
		}
		if n.TopLevel() < level {
			return fmt.Errorf("skipgraph: level %d list %d: node %d (key %v) only spans levels 0..%d",
				level, label, n.ID(), n.Key(), n.TopLevel())
		}
		if !sg.cfg.SingleList {
			if want := membership.ListLabel(n.Vector(), level); int(want) != label {
				return fmt.Errorf("skipgraph: level %d list %d: node %d (key %v, vector %#x) belongs to list %d",
					level, label, n.ID(), n.Key(), n.Vector(), want)
			}
		}
		if prev != nil && (n.LessThan(prev.Key()) || level == 0 && n.KeyEquals(prev.Key())) {
			return fmt.Errorf("skipgraph: level %d list %d: key %v after %v", level, label, n.Key(), prev.Key())
		}
		if marked, _ := n.RawMarkValid(); !marked {
			if prevLive != nil && n.KeyEquals(prevLive.Key()) {
				return fmt.Errorf("skipgraph: level %d list %d: two live nodes (%d, %d) hold key %v",
					level, label, prevLive.ID(), n.ID(), n.Key())
			}
			prevLive = n
		}
		prev = n
		present[n.ID()] = true
	}
	return fmt.Errorf("skipgraph: level %d list %d: walk hit nil before the tail", level, label)
}
