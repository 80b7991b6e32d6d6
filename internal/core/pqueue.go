package core

import (
	"layeredsg/internal/node"
	"layeredsg/internal/obs"
)

// RemoveMin deletes and returns the smallest logically-present key — the
// exact-priority-queue adaptation the paper's appendix reports preliminary
// results for and its conclusion names as future work. The minimum is found
// by walking the bottom list from the head, skipping marked and
// logically-deleted nodes; deletion linearizes on the same helper CAS as
// Remove, so contending consumers each extract a distinct element, and is
// stamped for snapshots and journaled to the WAL like a Remove.
func (h *Handle[K, V]) RemoveMin() (K, V, bool) {
	return h.headWalk(h.removeMin)
}

// headWalk runs body as one priority-queue operation. The operation is an
// ordered walk from a head sentinel that consults no index, so it is traced
// as an obs.OpScan with origin head, and the index section's hit and miss
// sums over point operations stay exact.
func (h *Handle[K, V]) headWalk(body func() (K, V, bool)) (K, V, bool) {
	defer h.tr.Op()
	h.ot.Begin(obs.OpScan, h.tr)
	h.ot.SetOrigin(obs.OriginHead)
	h.enter()
	k, v, ok := body()
	h.leave()
	h.traceEnd(k, ok)
	return k, v, ok
}

// removeMin is RemoveMin's body, run inside the caller's operation (its pin,
// its op count, its reclamation-trigger tick).
func (h *Handle[K, V]) removeMin() (K, V, bool) {
	var zeroK K
	var zeroV V
	sg := h.m.sg
	for {
		n := sg.BottomHead().Next(0, h.tr)
		// Find the first live candidate.
		for n != nil && n.Kind() != node.Tail {
			marked, valid := n.MarkValid(0, h.tr)
			if !marked && valid {
				break
			}
			n = n.Next(0, h.tr)
		}
		if n == nil || n.Kind() == node.Tail {
			return zeroK, zeroV, false
		}
		done, removed := sg.RemoveHelper(n, h.tr)
		if done && removed {
			h.finishRemove(n.Key(), n)
			return n.Key(), n.Value(), true
		}
		// Someone beat us to this node; rescan for the next minimum.
	}
}

// RemoveMinRelaxed deletes and returns a key near the minimum — the
// *relaxed* priority-queue semantics of SprayList-style designs the paper's
// conclusion points to. A randomized descent (skipgraph.Spray) lands each
// consumer on a different near-minimal node, so contending consumers do not
// all fight over the exact head. width bounds the per-level spray (≤ 0 means
// 2). Falls back to an exact pop, within the same operation, when the spray
// lands on nothing removable, so it returns false only on an (observed)
// empty structure.
func (h *Handle[K, V]) RemoveMinRelaxed(width int) (K, V, bool) {
	if width <= 0 {
		width = 2
	}
	return h.headWalk(func() (K, V, bool) { return h.removeMinRelaxed(width) })
}

// removeMinRelaxed is RemoveMinRelaxed's body, run inside its operation.
func (h *Handle[K, V]) removeMinRelaxed(width int) (K, V, bool) {
	sg := h.m.sg
	landed := sg.Spray(h.vector, h.rng, width, h.tr)
	n := landed
	if n.Kind() == node.Head {
		n = sg.BottomHead().Next(0, h.tr)
	}
	for n != nil && n.Kind() != node.Tail {
		marked, valid := n.MarkValid(0, h.tr)
		if !marked && valid {
			if done, removed := sg.RemoveHelper(n, h.tr); done && removed {
				h.finishRemove(n.Key(), n)
				return n.Key(), n.Value(), true
			}
		}
		n = n.Next(0, h.tr)
	}
	// Spray landed past every removable node; fall back to the exact pop.
	return h.removeMin()
}

// Min returns the smallest logically-present key without removing it.
func (h *Handle[K, V]) Min() (K, V, bool) {
	return h.headWalk(h.peekMin)
}

// peekMin is Min's body, run inside its operation.
func (h *Handle[K, V]) peekMin() (K, V, bool) {
	var zeroK K
	var zeroV V
	for n := h.m.sg.BottomHead().Next(0, h.tr); n != nil && n.Kind() != node.Tail; n = n.Next(0, h.tr) {
		marked, valid := n.MarkValid(0, h.tr)
		if !marked && valid {
			return n.Key(), n.Value(), true
		}
	}
	return zeroK, zeroV, false
}
