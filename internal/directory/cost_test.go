package directory

import (
	"runtime"
	"testing"
	"unsafe"

	"ethpart/internal/graph"
)

// TestCommitCostBoundedByBatch pins that a commit costs the pages its batch
// touches, not the size of the cold tier: with 1k and with 100k dense
// entries retired cold, a one-entry Retire and a one-entry Set (which
// re-hydrates the entry) each allocate under one constant bound — one page
// copy plus the page-pointer table of the larger directory, plus a little
// per-commit bookkeeping (the snapshot header and the owned-page set).
func TestCommitCostBoundedByBatch(t *testing.T) {
	const (
		maxCold = 100_000
		rounds  = 50
	)
	bound := uint64(unsafe.Sizeof(page{})) + 8*(maxCold/pageSize+1) + 2048
	for _, cold := range []int{1_000, maxCold} {
		d := New(Config{})
		set := make([]Move, cold+1)
		for i := range set {
			set[i] = Move{V: graph.VertexID(i), To: i % 4}
		}
		retire := make([]graph.VertexID, cold)
		for i := range retire {
			retire[i] = graph.VertexID(i)
		}
		mustCommit(t, d, Batch{Set: set})
		mustCommit(t, d, Batch{Retire: retire})
		if got := d.Current().ColdLen(); got != cold {
			t.Fatalf("cold=%d: setup left %d cold entries", cold, got)
		}

		hot := graph.VertexID(cold) // the one entry left hot
		retireOne := Batch{Retire: []graph.VertexID{hot}}
		setOne := Batch{Set: []Move{{V: hot, To: 1}}}
		var retireBytes, setBytes uint64
		for i := 0; i < rounds; i++ {
			retireBytes += commitBytes(t, d, retireOne)
			setBytes += commitBytes(t, d, setOne)
		}
		if st := d.Stats(); st.Retired != uint64(cold+rounds) || st.Rehydrated != rounds {
			t.Fatalf("cold=%d: retired=%d rehydrated=%d, want %d/%d",
				cold, st.Retired, st.Rehydrated, cold+rounds, rounds)
		}
		t.Logf("cold=%d: Retire %d B, Set %d B per commit (bound %d B)",
			cold, retireBytes/rounds, setBytes/rounds, bound)
		if per := retireBytes / rounds; per > bound {
			t.Errorf("cold=%d: one-entry Retire commit allocates %d B, bound %d B", cold, per, bound)
		}
		if per := setBytes / rounds; per > bound {
			t.Errorf("cold=%d: one-entry Set commit allocates %d B, bound %d B", cold, per, bound)
		}
	}
}

// commitBytes commits b and returns the heap bytes the commit allocated.
func commitBytes(t *testing.T, d *Directory, b Batch) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	mustCommit(t, d, b)
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
