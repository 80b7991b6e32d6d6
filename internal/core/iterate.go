package core

import (
	"layeredsg/internal/node"
	"layeredsg/internal/obs"
)

// Ascend visits logically present entries with key >= from, in ascending key
// order, until fn returns false. The iteration is *weakly consistent*, as is
// standard for lock-free ordered maps: it observes a path through the live
// bottom list, so entries inserted or removed concurrently with the
// traversal may or may not be observed, but every entry present for the
// whole traversal is visited exactly once, and keys arrive strictly
// increasing.
//
// The traversal jumps in through the local structure like any other
// operation, then follows the level-0 list.
func (h *Handle[K, V]) Ascend(from K, fn func(key K, value V) bool) {
	h.tr.Op()
	h.ot.Begin(obs.OpScan, h.tr)
	defer h.traceEnd(from, true)
	h.enter()
	defer h.leave()
	sg := h.m.sg
	it := h.getStart(from)
	// Only the bottom head fronts the level-0 list; upper-level head
	// sentinels maintain just their own level's reference.
	start := sg.BottomHead()
	if n := h.nodeOf(it); n != nil {
		h.ot.SetOrigin(obs.OriginLocalJump)
		start = n
	} else {
		h.ot.SetOrigin(obs.OriginHead)
	}
	// Walk level 0 from the start to the first live node >= from, then
	// onward. The local floor may be `from` itself, in which case it must be
	// visited, not skipped.
	cur := start
	if cur.LessThan(from) || cur.Kind() != node.Data {
		cur = start.Next(0, h.tr)
	}
	for cur != nil && cur.Kind() != node.Tail {
		if cur.LessThan(from) {
			cur = cur.Next(0, h.tr)
			continue
		}
		marked, valid := cur.MarkValid(0, h.tr)
		if !marked && (valid || !sg.Lazy()) {
			if !fn(cur.Key(), cur.Value()) {
				return
			}
		}
		cur = cur.Next(0, h.tr)
	}
}

// Count reports the number of logically present keys in [from, to], using
// the same weakly consistent traversal as Ascend.
func (h *Handle[K, V]) Count(from, to K) int {
	count := 0
	h.Ascend(from, func(key K, _ V) bool {
		if to < key {
			return false
		}
		count++
		return true
	})
	return count
}
