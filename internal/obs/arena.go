package obs

// Arena-occupancy gauge: a structure's node arena (see internal/node,
// DESIGN.md "Memory layout") installs a stats callback so snapshots report
// how much slab memory the structure holds and how full it is. Mirrors the
// maintenance queue-depth gauge.

// ArenaShardSnapshot describes one arena shard's (socket slab's) occupancy.
type ArenaShardSnapshot struct {
	// Chunks is the number of chunk slabs the shard has allocated.
	Chunks int `json:"chunks"`
	// SlotsUsed is the number of node slots ever carved from the shard's
	// chunks. Chunk memory is never returned while the structure lives, but
	// with epoch-based reclamation individual slots cycle back through the
	// shard's free list, so SlotsUsed - SlotsFree is the live-node count.
	SlotsUsed uint64 `json:"slots_used"`
	// SlotsReserved is the slot capacity of the allocated chunks.
	SlotsReserved uint64 `json:"slots_reserved"`
	// SlotsFree is the current depth of the shard's reclaimed-slot free list.
	SlotsFree uint64 `json:"slots_free"`
	// SlotsReclaimed counts slots ever returned to the free list.
	SlotsReclaimed uint64 `json:"slots_reclaimed"`
	// SlotsReused counts allocations served from the free list.
	SlotsReused uint64 `json:"slots_reused"`
}

// ArenaSnapshot summarizes a structure's node-arena occupancy.
type ArenaSnapshot struct {
	Shards         []ArenaShardSnapshot `json:"shards"`
	Chunks         int                  `json:"chunks"`
	SlotsUsed      uint64               `json:"slots_used"`
	SlotsReserved  uint64               `json:"slots_reserved"`
	SlotsFree      uint64               `json:"slots_free"`
	SlotsReclaimed uint64               `json:"slots_reclaimed"`
	SlotsReused    uint64               `json:"slots_reused"`
}

// SlotsLive is the number of slots currently occupied by a node.
func (a ArenaSnapshot) SlotsLive() uint64 {
	if a.SlotsFree > a.SlotsUsed {
		return 0
	}
	return a.SlotsUsed - a.SlotsFree
}

// SetArenaStats installs the gauge snapshots read for the arena section of
// Snapshot — typically a closure over skipgraph.SG.ArenaStats. A nil tracer
// ignores the call.
func (t *Tracer) SetArenaStats(f func() ArenaSnapshot) {
	if t == nil {
		return
	}
	t.arenaStats.Store(&f)
}

// arenaSnapshot builds the Snapshot section, or nil before a structure
// attaches.
func (t *Tracer) arenaSnapshot() *ArenaSnapshot {
	fn := t.arenaStats.Load()
	if fn == nil {
		return nil
	}
	s := (*fn)()
	return &s
}
