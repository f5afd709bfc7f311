package experiments

import (
	"sync"
	"testing"
	"time"

	"ethpart/internal/opsim"
	"ethpart/internal/shardchain"
	"ethpart/internal/sim"
	"ethpart/internal/workload"
)

func TestOperationalCoversMatrixAndCaches(t *testing.T) {
	ds := testDataset(t)
	rows, err := ds.Operational(2)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(sim.Methods()) * len(Models()); len(rows) != want {
		t.Fatalf("rows = %d, want %d (methods × models)", len(rows), want)
	}
	seen := map[opsKey]bool{}
	for _, row := range rows {
		key := opsKey{method: row.Method, model: row.Model, k: row.K}
		if seen[key] {
			t.Errorf("duplicate row %v/%v", row.Method, row.Model)
		}
		seen[key] = true
		if row.Result == nil || len(row.Result.Windows) == 0 {
			t.Fatalf("%v/%v: empty result", row.Method, row.Model)
		}
		if row.Result.Totals.Failed != 0 {
			t.Errorf("%v/%v: %d failed txs", row.Method, row.Model, row.Result.Totals.Failed)
		}
	}
	// Second call must serve from the cache (same pointers).
	again, err := ds.Operational(2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		if rows[i].Result != again[i].Result {
			t.Fatalf("row %d not cached", i)
		}
	}

	// The operational ordering mirrors the cut ordering: under receipts,
	// METIS must beat hashing on messages, the paper's claim end to end.
	byKey := map[opsKey]*OperationalRow{}
	for i := range rows {
		byKey[opsKey{method: rows[i].Method, model: rows[i].Model, k: rows[i].K}] = &rows[i]
	}
	hash := byKey[opsKey{method: sim.MethodHash, model: shardchain.ModelReceipts, k: 2}]
	metis := byKey[opsKey{method: sim.MethodMetis, model: shardchain.ModelReceipts, k: 2}]
	if metis.Result.Totals.Messages >= hash.Result.Totals.Messages {
		t.Errorf("metis messages %d not below hash %d",
			metis.Result.Totals.Messages, hash.Result.Totals.Messages)
	}
}

// tinyDataset is a one-week history small enough to replay through the
// live chain many times in one test.
func tinyDataset(t *testing.T) *Dataset {
	t.Helper()
	ds, err := NewDataset(Params{
		Seed:  7,
		Scale: 0.01,
		Eras: []workload.Era{{
			Name:          "mini",
			Start:         time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC),
			End:           time.Date(2017, 1, 8, 0, 0, 0, 0, time.UTC),
			TxPerDayStart: 10_000, TxPerDayEnd: 10_000, Kind: workload.GrowthLinear,
			NewAccountFrac: 0.2, DeploysPerDay: 5,
			Mix: workload.TxMix{Transfer: 0.6, Token: 0.2, Wallet: 0.1, Crowdsale: 0.05, Game: 0.03, Airdrop: 0.02},
		}},
		BlockInterval:    time.Hour,
		RepartitionEvery: 48 * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestOperationalRunConcurrentCallersShareCache(t *testing.T) {
	// Regression for the cache race: Operational advertises parallel fills,
	// so concurrent OperationalRun calls (same and different keys) must be
	// safe — run under -race in CI — and must converge on one cached
	// result per key.
	ds := tinyDataset(t)
	keys := []opsKey{
		{method: sim.MethodHash, model: shardchain.ModelReceipts, k: 2},
		{method: sim.MethodHash, model: shardchain.ModelMigration, k: 2},
		{method: sim.MethodHash, model: shardchain.ModelReceipts, k: 2}, // duplicate on purpose
		{method: sim.MethodMetis, model: shardchain.ModelReceipts, k: 2},
	}
	const callersPerKey = 3
	results := make([]*opsim.Result, len(keys)*callersPerKey)
	errs := make([]error, len(results))
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := keys[i%len(keys)]
			results[i], errs[i] = ds.OperationalRun(key.method, key.model, key.k)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	// After the dust settles the cache serves one pointer per key.
	for i := range results {
		key := keys[i%len(keys)]
		cached, err := ds.OperationalRun(key.method, key.model, key.k)
		if err != nil {
			t.Fatal(err)
		}
		if cached == nil || results[i] == nil {
			t.Fatalf("caller %d: nil result", i)
		}
		if cached.Totals != results[i].Totals {
			t.Errorf("caller %d: totals diverge from cached result", i)
		}
	}
	if _, err := ds.OperationalRun(sim.MethodHash, shardchain.ModelReceipts, 0); err == nil {
		t.Error("k=0 must error")
	}
}

// TestDecayParamsReachSimAndBridge pins the decay pass-through: Params'
// DecayHalfLife/Horizon must thread into every cached simulation and into
// the operational co-simulation. With an aggressive horizon on the one-week
// history, the decayed replay must end with a strictly smaller live graph
// than full-history mode while replaying the identical record stream, and
// the bridge must complete on top of it (retired accounts keep their
// sticky homes, so the live chain never sees an unhomed account).
func TestDecayParamsReachSimAndBridge(t *testing.T) {
	full := tinyDataset(t)
	decayed := tinyDecayedDataset(t)
	if len(full.GT.Records) != len(decayed.GT.Records) {
		t.Fatalf("histories diverge: %d vs %d records", len(full.GT.Records), len(decayed.GT.Records))
	}
	fr, err := full.Run(sim.MethodMetis, 2)
	if err != nil {
		t.Fatal(err)
	}
	dr, err := decayed.Run(sim.MethodMetis, 2)
	if err != nil {
		t.Fatal(err)
	}
	if dr.Vertices >= fr.Vertices {
		t.Errorf("decayed live graph (%d vertices) not below full history (%d)", dr.Vertices, fr.Vertices)
	}
	if len(dr.Windows) != len(fr.Windows) {
		t.Errorf("window counts diverge: %d vs %d", len(dr.Windows), len(fr.Windows))
	}
	res, err := decayed.OperationalRun(sim.MethodMetis, shardchain.ModelMigration, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Totals.Failed != 0 {
		t.Errorf("decayed operational run failed %d transactions", res.Totals.Failed)
	}
	if res.Replayed != int64(len(decayed.GT.Records)) {
		t.Errorf("replayed %d of %d records", res.Replayed, len(decayed.GT.Records))
	}
}

// tinyDecayedDataset is tinyDataset with windowed decay enabled (12h
// half-life, 36h horizon — aggressive enough to retire idle accounts
// within the one-week history).
func tinyDecayedDataset(t *testing.T) *Dataset {
	t.Helper()
	ds, err := NewDataset(Params{
		Seed:  7,
		Scale: 0.01,
		Eras: []workload.Era{{
			Name:          "mini",
			Start:         time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC),
			End:           time.Date(2017, 1, 8, 0, 0, 0, 0, time.UTC),
			TxPerDayStart: 10_000, TxPerDayEnd: 10_000, Kind: workload.GrowthLinear,
			NewAccountFrac: 0.2, DeploysPerDay: 5,
			Mix: workload.TxMix{Transfer: 0.6, Token: 0.2, Wallet: 0.1, Crowdsale: 0.05, Game: 0.03, Airdrop: 0.02},
		}},
		BlockInterval:    time.Hour,
		RepartitionEvery: 48 * time.Hour,
		DecayHalfLife:    12 * time.Hour,
		Horizon:          36 * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}
