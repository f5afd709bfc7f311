package graph

import (
	"fmt"
	"math"
	"slices"
)

// Scheduled (lazy) decay: the O(touched) sweep behind DecaySweep.
//
// A full scan of the contract in decay.go visits every live slot and both
// rows of every live vertex — O(live graph) per window even when nothing
// happened. Two observations make the sweep cheap without changing a
// single observable:
//
//  1. The per-sweep rescale w' = max(1, floor(w·factor)) has a fixed
//     point at w == 1 (and, for factor < 1, strictly decreases every
//     w >= 2). The set of weights a sweep can change is therefore exactly
//     the "heavy" set {w >= 2} — in steady state a vanishing fraction of
//     the live graph, since most weights have long since decayed to the
//     floor of one.
//  2. Retirement happens at an entry's touch epoch plus the horizon, a
//     time known the moment the entry is touched. A timer-wheel of
//     maxAge+1 buckets keyed by (touch+maxAge) mod ring files every
//     (re)touch exactly once; at a sweep only the current bucket drains,
//     and entries re-touched since filing are recognised (their age is
//     below the horizon) and skipped.
//
// The schedule therefore keeps: a bucket ring per kind (vertices, edges)
// and a heavy list per kind (entries whose weight is above the floor,
// plus freshly created vertices whose weight the next sweep must
// materialize from zero to one, exactly as a full scan would). Sweep
// work is O(bucket drained + heavy visited) — proportional to traffic
// touched within the horizon, not to the live graph.
//
// Heavy lists may hold duplicate or stale references (an entry retired,
// re-created and re-promoted files a second reference; membership is
// never searched on the hot path). Stale references resolve to a missing
// or light entry and are dropped at the next visit; duplicates are
// defused by the per-entry dec epoch tag, which marks an entry already
// rescaled in the current sweep. The invariant that makes the heavy list
// complete: every entry with weight >= 2 has at least one live reference
// listed (references are filed when a weight leaves the floor and only
// removed by a visit that observed the weight at or below it).
//
// Stored weights are always current: a sweep materializes every weight it
// could change, so readers (Neighbors, EdgeWeight, the CSR builder, the
// placement rules, the aggregate counters) need no read-side view and are
// byte-identical to a full scan. Equivalence is pinned under -race by a
// property test against the full-scan sweep the tests keep as an oracle.

// maxScheduledAge bounds the horizon NewDecaying builds its bucket rings
// for: a horizon of more than ~64k sweeps (decades of four-hour windows)
// is refused rather than paying for rings that large.
const maxScheduledAge = 1 << 16

// edgeRef names a directed edge by its endpoints; the out row of u holds
// the canonical copy.
type edgeRef struct {
	u, v VertexID
}

// heavyVertex references a vertex by slot, with the ID it had when filed
// so a reference left dangling by retirement and slot reuse is
// recognised as stale.
type heavyVertex struct {
	s  int32
	id VertexID
}

// decaySchedule is the scheduled-decay state of a Graph.
type decaySchedule struct {
	maxAge uint32
	// vring and ering are the horizon bucket rings, indexed by target
	// epoch mod (maxAge+1). The bucket drained at epoch e holds exactly
	// the entries filed at epoch e-maxAge; pending buckets target epochs
	// in (e, e+maxAge], so targets never collide within the ring.
	vring [][]VertexID
	ering [][]edgeRef
	// heavyV and heavyE list the entries the next sweep must rescale.
	heavyV []heavyVertex
	heavyE []edgeRef
	// vdec is the slot-parallel vertex counterpart of halfEdge.dec: the
	// epoch of the slot's last scheduled rescale, defusing duplicate
	// heavy references within one sweep.
	vdec []uint32
	// retire is per-sweep scratch for sorting the retiring slots.
	retire []int32
}

// clone deep-copies the schedule (Graph.Clone support).
func (d *decaySchedule) clone() *decaySchedule {
	c := &decaySchedule{
		maxAge: d.maxAge,
		vring:  make([][]VertexID, len(d.vring)),
		ering:  make([][]edgeRef, len(d.ering)),
		heavyV: append([]heavyVertex(nil), d.heavyV...),
		heavyE: append([]edgeRef(nil), d.heavyE...),
		vdec:   append([]uint32(nil), d.vdec...),
	}
	for i := range d.vring {
		if len(d.vring[i]) > 0 {
			c.vring[i] = append([]VertexID(nil), d.vring[i]...)
		}
	}
	for i := range d.ering {
		if len(d.ering[i]) > 0 {
			c.ering[i] = append([]edgeRef(nil), d.ering[i]...)
		}
	}
	return c
}

// NewDecaying returns an empty graph whose decay sweeps (DecaySweep)
// retire entries untouched for maxAge sweeps. maxAge must be in
// [1, 1<<16]. The factor passed to each sweep remains free — only the
// horizon is fixed, because the retirement buckets are keyed by it.
func NewDecaying(maxAge uint32) (*Graph, error) {
	if maxAge < 1 || maxAge > maxScheduledAge {
		return nil, fmt.Errorf("graph: decay horizon %d outside [1, %d]", maxAge, maxScheduledAge)
	}
	return &Graph{sched: &decaySchedule{
		maxAge: maxAge,
		vring:  make([][]VertexID, maxAge+1),
		ering:  make([][]edgeRef, maxAge+1),
	}}, nil
}

// scheduleExpiry files id into the horizon bucket of the epoch at which
// it becomes eligible to retire if left untouched. Called on the first
// touch of a vertex in each epoch.
func (g *Graph) scheduleExpiry(id VertexID) {
	d := g.sched
	slot := (g.epoch + d.maxAge) % uint32(len(d.vring))
	d.vring[slot] = append(d.vring[slot], id)
}

// scheduleEdgeExpiry is scheduleExpiry for the directed edge u->v.
func (g *Graph) scheduleEdgeExpiry(u, v VertexID) {
	d := g.sched
	slot := (g.epoch + d.maxAge) % uint32(len(d.ering))
	d.ering[slot] = append(d.ering[slot], edgeRef{u: u, v: v})
}

// scheduleVertex registers a newly (re)created vertex: a horizon bucket
// entry, plus a heavy-list entry because its weight of zero must be
// materialized to the floor of one by the next sweep, exactly as a full
// scan would.
func (g *Graph) scheduleVertex(id VertexID, s int32) {
	g.scheduleExpiry(id)
	g.sched.heavyV = append(g.sched.heavyV, heavyVertex{s: s, id: id})
}

// DecaySweep advances the graph's epoch and applies one decay sweep: every
// vertex and edge weight is multiplied by factor (rounded down, clamped to
// a minimum of one), and vertices and edges untouched for the graph's
// maxAge or more epochs — counting the epoch just opened — are dropped.
//
// onRetire fires per retiring vertex just before it retires (while its ID
// and records are still intact), letting callers maintain external
// per-vertex state — the simulator uses it to keep per-shard live counts
// exact. onEdge fires exactly once per directed edge the sweep changes —
// onEdge(u, v, oldW, 0) for a horizon drop, onEdge(u, v, oldW, newW) for a
// weight rescale that actually changed the stored value — and never for
// edges left as they were, so a consumer can maintain edge-derived
// counters incrementally and skip windows whose delta is Quiet. Either
// callback may be nil. Callbacks must not mutate the graph.
//
// An out-of-range factor is clamped rather than silently ignored — a
// factor underflowing to 0 (a half-life vastly shorter than the sweep
// interval) must not read as "decay off" and let the graph grow without
// bound: factor <= 0 becomes the smallest positive float (weights collapse
// to the floor of one immediately; retirement still runs on age), factor >
// 1 becomes 1.
//
// DecaySweep panics on a graph not made by NewDecaying.
//
// The sweep is O(touched): equivalence with a full scan rests on the
// observations documented at the top of this file; the phases run in an
// order that reproduces the full scan's observable sequence exactly:
//
//  1. Drain the edge bucket — horizon-expired edges leave both rows
//     before any vertex retires, so retiring vertices always have empty
//     rows (an edge's touch never exceeds its endpoints', hence its
//     expiry never falls after theirs).
//  2. Drain the vertex bucket, retiring in ascending slot order — the
//     order a full scan fires onRetire in.
//  3. Rescale the heavy edges, then the heavy vertices. A vertex
//     retiring this sweep is gone by now, exactly like a full scan
//     retires a vertex instead of decaying it; its weight left the
//     aggregate at the value the previous sweep gave it.
func (g *Graph) DecaySweep(factor float64, onRetire func(VertexID), onEdge func(u, v VertexID, oldW, newW int64)) DecayDelta {
	if g.sched == nil {
		panic("graph: DecaySweep on a graph not made by NewDecaying")
	}
	if factor <= 0 {
		factor = math.SmallestNonzeroFloat64
	}
	if factor > 1 {
		factor = 1
	}
	d := g.sched
	g.epoch++
	e := g.epoch
	var delta DecayDelta

	// Phase 1: horizon-expired edges.
	slot := e % uint32(len(d.ering))
	for _, ref := range d.ering[slot] {
		delta.Touched++
		su := g.slotOf(ref.u)
		if su < 0 {
			continue // endpoint retired earlier; rows already clean
		}
		ro := &g.out[su]
		p := ro.find(ref.v)
		if p < 0 {
			continue // edge expired via an earlier filing
		}
		if e-ro.e[p].touch < d.maxAge {
			continue // re-touched since this filing; a newer bucket owns it
		}
		w := ro.e[p].w
		ro.removeAt(p)
		if sv := g.slotOf(ref.v); sv >= 0 {
			ri := &g.in[sv]
			if q := ri.find(ref.u); q >= 0 {
				ri.removeAt(q)
			}
		}
		g.numEdges--
		g.totalEdgeWeight -= w
		delta.EdgeDrops++
		if onEdge != nil {
			onEdge(ref.u, ref.v, w, 0)
		}
	}
	d.ering[slot] = d.ering[slot][:0]

	// Phase 2: horizon-expired vertices, in ascending slot order.
	d.retire = d.retire[:0]
	slot = e % uint32(len(d.vring))
	for _, id := range d.vring[slot] {
		delta.Touched++
		s := g.slotOf(id)
		if s < 0 || e-g.touch[s] < d.maxAge {
			continue // already retired, or re-touched since this filing
		}
		d.retire = append(d.retire, s)
	}
	d.vring[slot] = d.vring[slot][:0]
	slices.Sort(d.retire)
	for _, s := range d.retire {
		if onRetire != nil {
			onRetire(g.ids[s])
		}
		g.totalVertWeight -= g.weights[s]
		g.retireSlot(s)
		delta.Retired++
	}

	// Phase 3a: heavy edges. References surviving with weight >= 2 stay
	// listed (in-place filter); the rest drop out.
	he := d.heavyE[:0]
	for _, ref := range d.heavyE {
		delta.Touched++
		su := g.slotOf(ref.u)
		if su < 0 {
			continue
		}
		ro := &g.out[su]
		p := ro.find(ref.v)
		if p < 0 {
			continue // stale: edge expired (possibly just now)
		}
		en := &ro.e[p]
		if en.dec == e {
			continue // duplicate reference; this sweep already rescaled it
		}
		if en.w < 2 {
			continue // stale: a light re-creation reused the endpoints
		}
		en.dec = e
		old := en.w
		nw := int64(float64(old) * factor)
		if nw < 1 {
			nw = 1
		}
		if nw != old {
			en.w = nw
			// Mirror into the in copy so both row copies stay identical.
			sv := g.slotOf(ref.v)
			ri := &g.in[sv]
			if q := ri.find(ref.u); q >= 0 {
				ri.e[q].w = nw
			}
			g.totalEdgeWeight += nw - old
			delta.EdgeDecays++
			if onEdge != nil {
				onEdge(ref.u, ref.v, old, nw)
			}
		}
		if nw >= 2 {
			he = append(he, ref)
		}
	}
	d.heavyE = he

	// Phase 3b: heavy vertices.
	hv := d.heavyV[:0]
	for _, h := range d.heavyV {
		delta.Touched++
		if g.kinds[h.s] == 0 || g.ids[h.s] != h.id {
			continue // stale: retired (slot possibly reused by another ID)
		}
		if d.vdec[h.s] == e {
			continue // duplicate reference
		}
		d.vdec[h.s] = e
		old := g.weights[h.s]
		nw := int64(float64(old) * factor)
		if nw < 1 {
			nw = 1
		}
		if nw != old {
			g.weights[h.s] = nw
			g.totalVertWeight += nw - old
		}
		if nw >= 2 {
			hv = append(hv, h)
		}
	}
	d.heavyV = hv
	return delta
}
