package graph

import (
	"fmt"
	"runtime"
	"testing"
)

// buildRetiredEraGraph grows a graph through a sequence of historical eras
// of distinct vertices — inflating MaxID, the dense ID space high-water
// mark — each era retired past the horizon before the next begins, so
// retired slots are reused and peak slot storage stays O(era), decoupled
// from MaxID. It then establishes a small live set of `live` vertices on
// IDs spread across the whole historical space. The result is the regime
// the O(live) hot-path contract is about: a tiny live graph inside a huge
// historical ID space.
func buildRetiredEraGraph(tb testing.TB, historical, live int, maxAge uint32) *Graph {
	tb.Helper()
	g := mustNewDecaying(tb, maxAge)
	const eraSize = 512
	for lo := 0; lo < historical; lo += eraSize {
		hi := lo + eraSize
		if hi > historical {
			hi = historical
		}
		for i := lo; i < hi; i++ {
			next := i + 1
			if next == hi {
				next = lo
			}
			if err := g.AddInteraction(VertexID(i), VertexID(next),
				KindAccount, KindAccount, 1); err != nil {
				tb.Fatal(err)
			}
		}
		for i := uint32(0); i <= maxAge; i++ {
			g.DecaySweep(0.5, nil, nil)
		}
	}
	if g.VertexCount() != 0 {
		tb.Fatalf("historical eras not fully retired: %d live", g.VertexCount())
	}
	stride := (historical - 1) / live
	for i := 0; i < live; i++ {
		from := VertexID(i * stride)
		to := VertexID(((i + 1) % live) * stride)
		if err := g.AddInteraction(from, to, KindAccount, KindAccount, 1); err != nil {
			tb.Fatal(err)
		}
	}
	// One sweep settles the fresh weights; the live set is inside the
	// horizon and survives.
	g.DecaySweep(0.5, nil, nil)
	if g.VertexCount() != live {
		tb.Fatalf("live set = %d vertices, want %d", g.VertexCount(), live)
	}
	return g
}

// TestHotPathBoundedByLiveGraph is the tentpole's regression guard: after
// mass retirement shrinks the live graph to N vertices inside a historical
// ID space of tens of thousands, a CSR rebuild must allocate O(N) — not
// the O(MaxID) index table the old per-build memset paid — its counted
// index-clear loop must touch at most N entries per build, and a quiet
// decay sweep must visit nothing at all. Against the pre-refactor code the
// allocation bound fails by more than an order of magnitude (an 80 KB
// dense Index per build at MaxID 20000).
func TestHotPathBoundedByLiveGraph(t *testing.T) {
	const (
		historical = 20000
		live       = 64
		maxAge     = uint32(4)
		builds     = 50
	)
	g := buildRetiredEraGraph(t, historical, live, maxAge)
	if int(g.MaxID()) != historical {
		t.Fatalf("MaxID = %d, want the full historical ID space %d", g.MaxID(), historical)
	}

	var b CSRBuilder
	// Warm-up build: pays the one-time scratch growth to MaxID and sizes
	// the merge buffers, like the simulator's long-lived builder has by
	// steady state.
	if err := b.Build(g).Validate(); err != nil {
		t.Fatal(err)
	}
	clears0 := b.IndexClears()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var c *CSR
	for i := 0; i < builds; i++ {
		c = b.Build(g)
	}
	runtime.ReadMemStats(&after)
	if c.N() != live {
		t.Fatalf("CSR.N = %d, want %d", c.N(), live)
	}

	perBuild := (after.TotalAlloc - before.TotalAlloc) / builds
	// O(live) budget: the CSR's own slices for 64 vertices come to ~2 KB;
	// 16 KB leaves generous headroom while sitting far below the 80 KB
	// (historical × 4 bytes) the dense per-build index table cost.
	if limit := uint64(16 << 10); perBuild > limit {
		t.Errorf("CSR build allocates %d B at %d live vertices (MaxID %d), want <= %d B (O(live), not O(MaxID))",
			perBuild, live, historical, limit)
	}
	if clears := b.IndexClears() - clears0; clears > builds*live {
		t.Errorf("scratch index clears = %d over %d builds, want <= %d (live IDs only)",
			clears, builds, builds*live)
	}

	// Sweep side of the contract. The first sweep after the live burst
	// still drains the burst's schedule entries — O(live). The one after
	// that is quiet: no bucket due, no heavy weight left, so the scheduled
	// sweep must do no work at all however large the graph's history.
	d1 := g.DecaySweep(0.5, nil, nil)
	if d1.Touched > 4*live {
		t.Errorf("post-burst sweep touched %d entries, want <= %d (O(live))", d1.Touched, 4*live)
	}
	d2 := g.DecaySweep(0.5, nil, nil)
	if d2.Touched != 0 || !d2.Quiet() {
		t.Errorf("quiet sweep touched %d entries (quiet=%v), want zero work", d2.Touched, d2.Quiet())
	}
}

// BenchmarkCSRRebuildAfterRetirement pins the CSR half of the O(live)
// claim for CI: rebuild cost at a fixed live-vertex count across a 20×
// spread of historical ID space (MaxID). With the builder-owned scratch
// index the three curves coincide; the old dense per-build Index table
// made cost track MaxID. Part of CI's benchmark smoke.
func BenchmarkCSRRebuildAfterRetirement(b *testing.B) {
	const live = 256
	for _, historical := range []int{live * 4, live * 20, live * 80} {
		b.Run(fmt.Sprintf("live=%d/maxid=%d", live, historical), func(b *testing.B) {
			g := buildRetiredEraGraph(b, historical, live, 4)
			var builder CSRBuilder
			builder.Build(g) // one-time scratch growth
			b.ReportAllocs()
			b.ResetTimer()
			var c *CSR
			for i := 0; i < b.N; i++ {
				c = builder.Build(g)
			}
			b.StopTimer()
			b.ReportMetric(float64(c.N()), "live-vertices")
			b.ReportMetric(float64(g.MaxID()), "max-id")
		})
	}
}

// BenchmarkQuietWindowSweep pins the sweep half of the O(live) claim for
// CI: the cost of a quiet decay sweep (nothing expires, nothing above the
// decay floor) across a 10× spread of live-graph size. The scheduled sweep
// stays flat — a quiet window costs nothing regardless of how much is
// live. Part of CI's benchmark smoke.
func BenchmarkQuietWindowSweep(b *testing.B) {
	// Every sweep ages the idle entries by one window, and at default
	// benchtime the benchmark runs millions of sweeps — far past any
	// horizon, after which the graph has retired and the benchmark would
	// time sweeps of an empty graph. So the graph is rebuilt, with the
	// timer stopped, every quietSweeps measured sweeps: well inside the
	// horizon, so every measured sweep sees all `live` vertices.
	const (
		maxAge      = maxScheduledAge
		warmSweeps  = 3
		quietSweeps = maxAge / 2
	)
	for _, live := range []int{2000, 20000} {
		b.Run(fmt.Sprintf("mode=scheduled/live=%d", live), func(b *testing.B) {
			build := func() *Graph {
				g := mustNewDecaying(b, maxAge)
				for i := 0; i < live; i++ {
					if err := g.AddInteraction(VertexID(i), VertexID((i+1)%live),
						KindAccount, KindAccount, 2); err != nil {
						b.Fatal(err)
					}
				}
				// Warm sweeps: grind every weight to the decay floor and
				// drain the heavy lists; afterwards each sweep is quiet.
				for i := 0; i < warmSweeps; i++ {
					g.DecaySweep(0.5, nil, nil)
				}
				return g
			}
			g := build()
			b.ReportAllocs()
			b.ResetTimer()
			var touched int
			for i := 0; i < b.N; i++ {
				if i > 0 && i%quietSweeps == 0 {
					b.StopTimer()
					g = build()
					b.StartTimer()
				}
				touched += g.DecaySweep(0.5, nil, nil).Touched
			}
			b.StopTimer()
			if got := g.VertexCount(); got != live {
				b.Fatalf("live-vertices = %d after %d sweeps, want %d: the benchmark measured a retiring graph",
					got, b.N, live)
			}
			b.ReportMetric(float64(touched)/float64(b.N), "touched/sweep")
			b.ReportMetric(float64(g.VertexCount()), "live-vertices")
		})
	}
}
