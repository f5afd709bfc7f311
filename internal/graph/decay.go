package graph

// Windowed decay and retirement. A graph made by NewDecaying tracks, per
// vertex and per directed edge, the epoch of the last interaction that
// touched it; a decay sweep (one per metric window in the simulator)
// advances the epoch, multiplies every live weight by a factor in (0,1],
// and retires whatever has not been touched for the graph's maxAge epochs.
// The effective decayed weight of an entry is therefore
//
//	w(age) = max(1, floor(w·factor^age))  while age < maxAge,
//	w(age) = 0                            at age >= maxAge,
//
// i.e. weights shrink exponentially toward the floor of one unit and reach
// zero exactly at the retention horizon. The min-1 clamp keeps integer
// weights from erasing the (majority) weight-1 edges after a single sweep,
// so the half-life governs *ranking* between heavy and light edges while
// the horizon alone governs *lifetime* — which is what bounds memory: the
// live graph is exactly the set of vertices and edges touched within the
// last maxAge epochs.
//
// DecaySweep (decay_sched.go) is the one sweep: it exploits the floor
// fixed point and horizon buckets to touch only what a sweep can actually
// change. A full scan of the live graph with the same semantics is kept in
// the tests as the oracle it is checked against.
//
// Retired vertices release their slot to the free list (EnsureVertex reuses
// it on reappearance) and their ID is removed from the slot table or spill
// map. The caller keeps any external per-vertex state (the simulator's
// shard assignment stays sticky) and re-admits reappearing vertices through
// its normal first-sight path.

// DecayDelta summarizes what one decay sweep changed.
type DecayDelta struct {
	// Retired counts vertices dropped at the horizon.
	Retired int
	// EdgeDrops counts directed edges dropped at the horizon (each distinct
	// (u,v) pair once, however many row copies it had).
	EdgeDrops int
	// EdgeDecays counts directed edges whose weight changed (shrank) this
	// sweep, excluding drops.
	EdgeDecays int
	// Touched counts the schedule bucket and heavy-list entries the sweep
	// visited. It is the sweep's work metric: O(traffic touched within the
	// horizon) regardless of live-graph size.
	Touched int
}

// Quiet reports whether the sweep changed no edge: nothing dropped,
// nothing rescaled. Consumers maintaining edge-derived counters (the
// simulator's cut counters) can skip their update entirely on quiet
// sweeps.
func (d DecayDelta) Quiet() bool { return d.EdgeDrops == 0 && d.EdgeDecays == 0 }

// retireSlot frees one vertex slot: the ID is unindexed, the records are
// zeroed (the zero Kind marks the slot free) and the slot joins the free
// list. The vertex's rows are dropped wholesale — every incident edge is at
// least as old as the vertex, so the same sweep drops the mirror copies
// from the rows of its (live) neighbours.
func (g *Graph) retireSlot(s int32) {
	id := g.ids[s]
	if id < VertexID(len(g.slot)) {
		g.slot[id] = -1
	} else if g.spill != nil {
		delete(g.spill, id)
	}
	g.ids[s] = 0
	g.kinds[s] = 0
	g.weights[s] = 0
	g.out[s] = row{}
	g.in[s] = row{}
	g.free = append(g.free, s)
}

// Epoch returns the number of decay sweeps applied so far.
func (g *Graph) Epoch() uint32 { return g.epoch }
