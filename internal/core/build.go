package core

import (
	"cmp"
	"fmt"
	"iter"

	"layeredsg/internal/node"
)

// Build links a strictly increasing stream of records into m, which must be
// empty and not yet shared with other goroutines: the bulk load behind
// LoadFromDisk. It deals record i to thread i mod T, so every stripe's local
// structure ends up holding every T-th key, and then builds the record's
// node exactly as an insert by that thread would leave it, without a search:
//
//   - allocated from the thread's arena shard, with its membership vector
//     and (sparse variants) a height drawn from its RNG;
//   - appended behind the last node of every list it joins and marked
//     inserted (skipgraph.Appender);
//   - on lazy variants, stamped born at born, so every snapshot from born on
//     sees it; Build advances the sequence to born, so every later stamp
//     orders after the load;
//   - added to the thread's local structure, unless it is a sparse node
//     below the top level.
//
// The shared index is filled once at the end, each shard sized for its
// share. A key not above its predecessor stops the build with an error; the
// half-built map must then be discarded.
func Build[K cmp.Ordered, V any](m *Map[K, V], born uint64, records iter.Seq2[K, V]) error {
	if m.sg.BottomHead().RawNext(0).Kind() != node.Tail {
		return fmt.Errorf("core: Build needs an empty map")
	}
	m.domain.AdvanceSeq(born)
	app := m.sg.NewAppender()
	var nodes []*node.Node[K, V]
	for key, value := range records {
		if len(nodes) > 0 && !cmp.Less(nodes[len(nodes)-1].Key(), key) {
			return fmt.Errorf("core: Build: key %v after %v", key, nodes[len(nodes)-1].Key())
		}
		h := m.handles[len(nodes)%len(m.handles)]
		n := app.Append(key, value, h.vector, h.owner, m.sg.RandomTopLevel(h.rng))
		if m.domain != nil {
			n.SetBorn(born)
		}
		if !m.sg.Sparse() || n.TopLevel() == m.sg.MaxLevel() {
			h.ls.Put(key, n)
		}
		nodes = append(nodes, n)
	}
	m.hidx.Fill(nodes)
	m.rc.built = int64(len(nodes))
	return nil
}
