package skipgraph

import (
	"layeredsg/internal/node"
	"layeredsg/internal/stats"
)

// RemoveHelper is the paper's Alg. 12. Given a shared node holding the goal
// key, it tries to finish a remove operation on the spot:
//
//   - lazy protocol: an unmarked invalid node means the key is already absent
//     (failed removal, case R-i); an unmarked valid node is logically deleted
//     by atomically clearing its valid bit (successful removal, case R-ii).
//     Physical unlinking happens later, after the commission period, via
//     checkRetire/retire during searches, or via the layered map's
//     reclamation pass.
//   - non-lazy protocol: an unmarked node is deleted by marking its upper
//     level references and then CASing the level-0 mark, which is the
//     linearization point; physical unlinking happens in search-time cleanup.
//
// done=false means the node was already marked: the caller must clean its
// local structures and fall through to the search-based removal path.
func (sg *SG[K, V]) RemoveHelper(n *node.Node[K, V], tr *stats.ThreadRecorder) (done, removed bool) {
	if !sg.cfg.Lazy {
		if n.Marked(0, tr) {
			return false, false
		}
		return true, sg.nonLazyDelete(n, tr)
	}
	for {
		marked, valid := n.MarkValid(0, tr)
		if marked {
			return false, false
		}
		if !valid {
			return true, false // Non-existent (R-i).
		}
		if n.CASMarkValid(0, false, true, false, false, tr) {
			return true, true // Flipped valid (R-ii).
		}
	}
}

// nonLazyDelete marks every upper-level reference of n (freezing them so
// relinking can bypass the node at every level) and then attempts the
// level-0 mark. Exactly one contending remover wins the level-0 CAS; losers
// report a failed removal. Because upper levels are marked before level 0, a
// node observed marked at level 0 is frozen at all levels, making the relink
// optimization safe at every level of the non-lazy structure.
func (sg *SG[K, V]) nonLazyDelete(n *node.Node[K, V], tr *stats.ThreadRecorder) bool {
	for level := n.TopLevel(); level >= 1; level-- {
		for !n.Marked(level, tr) {
			n.CASMark(level, false, true, tr)
		}
	}
	return n.CASMark(0, false, true, tr)
}
