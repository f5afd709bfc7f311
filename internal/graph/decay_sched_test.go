package graph

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// graphDump is a canonical, storage-independent snapshot of every graph
// observable: sorted vertex and edge lists plus the aggregate counters.
// Two graphs with equal dumps are indistinguishable to any reader.
type graphDump struct {
	Vertices []vertexDump
	Edges    []edgeDump
	Epoch    uint32
	NumEdges int
	TotalEW  int64
	TotalVW  int64
}

type vertexDump struct {
	ID   VertexID
	Kind Kind
	W    int64
}

type edgeDump struct {
	U, V VertexID
	W    int64
}

func dumpGraph(g *Graph) graphDump {
	d := graphDump{
		Epoch:    g.Epoch(),
		NumEdges: g.EdgeCount(),
		TotalEW:  g.TotalEdgeWeight(),
		TotalVW:  g.TotalVertexWeight(),
	}
	g.Vertices(func(id VertexID, kind Kind, w int64) bool {
		d.Vertices = append(d.Vertices, vertexDump{ID: id, Kind: kind, W: w})
		return true
	})
	slices.SortFunc(d.Vertices, func(a, b vertexDump) int {
		if a.ID != b.ID {
			if a.ID < b.ID {
				return -1
			}
			return 1
		}
		return 0
	})
	g.Edges(func(u, v VertexID, w int64) bool {
		d.Edges = append(d.Edges, edgeDump{U: u, V: v, W: w})
		return true
	})
	slices.SortFunc(d.Edges, func(a, b edgeDump) int {
		if a.U != b.U {
			if a.U < b.U {
				return -1
			}
			return 1
		}
		if a.V != b.V {
			if a.V < b.V {
				return -1
			}
			return 1
		}
		return 0
	})
	return d
}

// sweepTrace collects one sweep's callback output in comparable form:
// retirements in emission order (observable: ascending slot order on both
// paths), edge changes sorted (emission order is an implementation detail
// of the sweep's internal walk and deliberately unspecified).
type sweepTrace struct {
	Retired []VertexID
	Edges   []edgeChange
}

type edgeChange struct {
	U, V       VertexID
	OldW, NewW int64
}

// sweeper is the signature DecaySweep and the eager oracle share.
type sweeper func(factor float64, onRetire func(VertexID), onEdge func(u, v VertexID, oldW, newW int64)) DecayDelta

// eagerSweeper binds the test-only full-scan sweep of g at horizon maxAge.
func eagerSweeper(g *Graph, maxAge uint32) sweeper {
	return func(factor float64, onRetire func(VertexID), onEdge func(u, v VertexID, oldW, newW int64)) DecayDelta {
		return g.eagerSweep(factor, maxAge, onRetire, onEdge)
	}
}

func traceSweep(sweep sweeper, factor float64) (DecayDelta, sweepTrace) {
	var tr sweepTrace
	delta := sweep(factor,
		func(id VertexID) { tr.Retired = append(tr.Retired, id) },
		func(u, v VertexID, oldW, newW int64) {
			tr.Edges = append(tr.Edges, edgeChange{U: u, V: v, OldW: oldW, NewW: newW})
		})
	slices.SortFunc(tr.Edges, func(a, b edgeChange) int {
		if a.U != b.U {
			if a.U < b.U {
				return -1
			}
			return 1
		}
		if a.V != b.V {
			if a.V < b.V {
				return -1
			}
			return 1
		}
		return 0
	})
	return delta, tr
}

// TestPropertyScheduledDecayMatchesEager drives a NewDecaying graph and a
// plain graph swept by the test-only full-scan oracle (eagerSweep) with
// identical interaction/sweep interleavings —
// bursts, quiet gaps long enough to retire whole eras, and reappearance of
// retired IDs — and requires byte-identical observables after every sweep:
// the canonical graph dump, the retirement sequence, the edge-change set,
// and the DecayDelta change counts. This is the equivalence proof for the
// O(touched) sweep; CI runs it under -race.
func TestPropertyScheduledDecayMatchesEager(t *testing.T) {
	f := func(seed int64, nRaw, roundsRaw, ageRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%40) + 2
		rounds := int(roundsRaw%30) + 4
		maxAge := uint32(ageRaw%5) + 1
		factor := [...]float64{0.5, 0.9, 1.0, 0.25}[int(seed&3+3)&3]

		lazy := mustNewDecaying(t, maxAge)
		eager := New()

		for round := 0; round < rounds; round++ {
			// A burst of traffic over a drifting slice of the ID pool —
			// later rounds re-touch IDs the quiet gaps retired, exercising
			// reappearance (slot reuse with stale schedule references).
			burst := rng.Intn(3 * n)
			base := rng.Intn(n)
			for i := 0; i < burst; i++ {
				it := interactionStream(seed^int64(round*1000+i), n, 1)[0]
				if rng.Intn(4) == 0 {
					// Bias part of the burst toward a drifting hot set so
					// heavy (weight >= 2) entries form and re-form.
					it.to = VertexID((base + i%3) % n)
					it.tk = KindAccount
				}
				if err := lazy.AddInteraction(it.from, it.to, it.fk, it.tk, it.w); err != nil {
					t.Fatalf("lazy AddInteraction: %v", err)
				}
				if err := eager.AddInteraction(it.from, it.to, it.fk, it.tk, it.w); err != nil {
					t.Fatalf("eager AddInteraction: %v", err)
				}
			}
			// One to several sweeps: >maxAge in a row simulates a quiet gap
			// that retires everything untouched.
			sweeps := 1
			if rng.Intn(3) == 0 {
				sweeps = int(maxAge) + 1 + rng.Intn(2)
			}
			for k := 0; k < sweeps; k++ {
				ld, lt := traceSweep(lazy.DecaySweep, factor)
				ed, et := traceSweep(eagerSweeper(eager, maxAge), factor)
				if ld.Retired != ed.Retired || ld.EdgeDrops != ed.EdgeDrops || ld.EdgeDecays != ed.EdgeDecays {
					t.Errorf("round %d sweep %d: delta (r=%d,d=%d,c=%d) vs eager (r=%d,d=%d,c=%d)",
						round, k, ld.Retired, ld.EdgeDrops, ld.EdgeDecays,
						ed.Retired, ed.EdgeDrops, ed.EdgeDecays)
					return false
				}
				if !reflect.DeepEqual(lt, et) {
					t.Errorf("round %d sweep %d: traces diverge\nlazy:  %+v\neager: %+v", round, k, lt, et)
					return false
				}
				if ldump, edump := dumpGraph(lazy), dumpGraph(eager); !reflect.DeepEqual(ldump, edump) {
					t.Errorf("round %d sweep %d: graphs diverge\nlazy:  %+v\neager: %+v", round, k, ldump, edump)
					return false
				}
			}
		}

		// A clone of the scheduled graph must keep sweeping independently
		// and identically.
		lc, ec := lazy.Clone(), eager.Clone()
		traceSweep(lazy.DecaySweep, factor)
		for k := 0; k < int(maxAge)+1; k++ {
			traceSweep(lc.DecaySweep, factor)
			traceSweep(eagerSweeper(ec, maxAge), factor)
		}
		if !reflect.DeepEqual(dumpGraph(lc), dumpGraph(ec)) {
			t.Error("cloned scheduled graph diverged from cloned eager graph")
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestNewDecayingRejectsOutOfRangeHorizon pins the construction-time
// contract: the horizon must lie in [1, maxScheduledAge].
func TestNewDecayingRejectsOutOfRangeHorizon(t *testing.T) {
	for _, maxAge := range []uint32{0, maxScheduledAge + 1} {
		if g, err := NewDecaying(maxAge); err == nil || g != nil {
			t.Errorf("NewDecaying(%d) = %v, %v; want an error", maxAge, g, err)
		}
	}
	for _, maxAge := range []uint32{1, maxScheduledAge} {
		if _, err := NewDecaying(maxAge); err != nil {
			t.Errorf("NewDecaying(%d) refused: %v", maxAge, err)
		}
	}
}

// TestDecaySweepQuietDelta pins the Quiet signal the simulator keys its
// cut-recount skip on: a sweep over a graph whose every weight sits at the
// floor and whose entries are all within the horizon changes nothing and
// must say so.
func TestDecaySweepQuietDelta(t *testing.T) {
	g := mustNewDecaying(t, 8)
	if err := g.AddInteraction(1, 2, KindAccount, KindAccount, 4); err != nil {
		t.Fatal(err)
	}
	// First sweeps grind the weights down to the floor.
	if d := g.DecaySweep(0.5, nil, nil); d.Quiet() {
		t.Error("first sweep reported quiet")
	}
	g.DecaySweep(0.5, nil, nil)
	// Weights now at 1; further in-horizon sweeps are quiet and do no work.
	d := g.DecaySweep(0.5, nil, nil)
	if !d.Quiet() {
		t.Errorf("floor sweep not quiet: %+v", d)
	}
	if d.Touched != 0 {
		t.Errorf("quiet sweep touched %d entries, want 0", d.Touched)
	}
}
