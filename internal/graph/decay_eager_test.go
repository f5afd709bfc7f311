package graph

// The full-scan decay sweep, kept as the test oracle for the scheduled
// sweep, DecaySweep (TestPropertyScheduledDecayMatchesEager). It runs
// on a graph made by New, whose AddInteraction keeps no schedule, and takes
// the horizon per call instead of from the graph.

// eagerSweep is the full-scan sweep: every slot ever allocated is visited
// (free slots cost one kind check each, so the scan is O(peak live size))
// and weight work is proportional to the live graph; aggregate counters
// (EdgeCount, TotalEdgeWeight, TotalVertexWeight) are rebuilt during the
// sweep.
//
// The epoch/touch invariant that makes the sweep safe: a vertex's touch is
// at least the touch of every incident edge (AddInteraction stamps both
// endpoints), so by the time a vertex ages out, every incident edge has
// already been dropped — from both of its row copies, which always carry
// identical touch stamps — and retirement never leaves a dangling edge.
// onEdge consequently fires from exactly one place per directed edge: the
// canonical (out) copy, either in the owner's decayRow pass or, for a
// retiring owner whose rows are dropped wholesale, in the retirement
// branch below.
func (g *Graph) eagerSweep(factor float64, maxAge uint32, onRetire func(VertexID), onEdge func(u, v VertexID, oldW, newW int64)) DecayDelta {
	var delta DecayDelta
	g.epoch++
	g.numEdges = 0
	g.totalEdgeWeight = 0
	g.totalVertWeight = 0
	for s := range g.ids {
		if g.kinds[s] == 0 {
			continue // already free
		}
		delta.Touched++
		if g.epoch-g.touch[s] >= maxAge {
			if onRetire != nil {
				onRetire(g.ids[s])
			}
			// The out row holds this vertex's canonical edge copies; they
			// vanish with the slot (the mirror copies in live neighbours'
			// in rows age out in those neighbours' decayRow pass, silently).
			r := &g.out[s]
			delta.EdgeDrops += len(r.e)
			if onEdge != nil {
				for i := range r.e {
					onEdge(g.ids[s], r.e[i].to, r.e[i].w, 0)
				}
			}
			g.retireSlot(int32(s))
			delta.Retired++
			continue
		}
		g.decayRow(&g.out[s], factor, maxAge, g.ids[s], true, onEdge, &delta)
		g.decayRow(&g.in[s], factor, maxAge, 0, false, nil, nil)
		w := int64(float64(g.weights[s]) * factor)
		if w < 1 {
			w = 1
		}
		g.weights[s] = w
		g.totalVertWeight += w
		g.numEdges += len(g.out[s].e)
		for i := range g.out[s].e {
			g.totalEdgeWeight += g.out[s].e[i].w
		}
	}
	return delta
}

// decayRow decays one adjacency row in place: expired entries are dropped,
// surviving weights shrink by factor with a floor of one. The position
// index is rebuilt (or dropped) to match the compacted row. canon marks the
// row as holding canonical (out) edge copies owned by vertex u: drops and
// rescales are then counted into delta and reported through onEdge; mirror
// (in) rows pass canon false and change silently.
func (g *Graph) decayRow(r *row, factor float64, maxAge uint32, u VertexID, canon bool, onEdge func(u, v VertexID, oldW, newW int64), delta *DecayDelta) {
	j := 0
	for i := range r.e {
		if canon {
			delta.Touched++
		}
		if g.epoch-r.e[i].touch >= maxAge {
			if canon {
				delta.EdgeDrops++
				if onEdge != nil {
					onEdge(u, r.e[i].to, r.e[i].w, 0)
				}
			}
			continue
		}
		w := int64(float64(r.e[i].w) * factor)
		if w < 1 {
			w = 1
		}
		if canon && w != r.e[i].w {
			delta.EdgeDecays++
			if onEdge != nil {
				onEdge(u, r.e[i].to, r.e[i].w, w)
			}
		}
		r.e[j] = r.e[i]
		r.e[j].w = w
		j++
	}
	if j == len(r.e) {
		// Nothing dropped: the rescale already happened in place (j == i
		// throughout), positions are unchanged, the index stays valid.
		return
	}
	r.e = r.e[:j]
	if r.idx == nil {
		return
	}
	if len(r.e) <= rowIndexThreshold {
		r.idx = nil
		return
	}
	clear(r.idx)
	for i := range r.e {
		r.idx[r.e[i].to] = int32(i)
	}
}
