package experiments

import (
	"fmt"

	"ethpart/internal/opsim"
	"ethpart/internal/shardchain"
	"ethpart/internal/sim"
)

// Models lists the two multi-shard handling classes in presentation order.
func Models() []shardchain.Model {
	return []shardchain.Model{shardchain.ModelReceipts, shardchain.ModelMigration}
}

// OperationalRow is one cell of the operational matrix: a method replayed
// through the live sharded chain under one multi-shard model.
type OperationalRow struct {
	Method sim.Method
	Model  shardchain.Model
	K      int
	Result *opsim.Result
}

type opsKey struct {
	method sim.Method
	model  shardchain.Model
	k      int
}

// opsConfigFor is the co-simulation configuration for one cell of the
// operational matrix.
func (d *Dataset) opsConfigFor(key opsKey) opsim.Config {
	return opsim.Config{Sim: d.configFor(key.method, key.k), Model: key.model}
}

// cachedOps returns the cached co-simulation result for key, if any.
func (d *Dataset) cachedOps(key opsKey) (*opsim.Result, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	res, ok := d.opsCache[key]
	return res, ok
}

// storeOps caches a co-simulation result.
func (d *Dataset) storeOps(key opsKey, res *opsim.Result) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.opsCache[key] = res
}

// OperationalRun returns the (cached) co-simulation result for one
// method × model at k shards. It is safe to call concurrently (the caches
// are mutex-guarded; the trace is only read).
func (d *Dataset) OperationalRun(method sim.Method, model shardchain.Model, k int) (*opsim.Result, error) {
	return d.operationalRun(opsKey{method, model, k})
}

func (d *Dataset) operationalRun(key opsKey) (*opsim.Result, error) {
	if key.k < 1 {
		return nil, fmt.Errorf("experiments: ops: k must be >= 1, got %d", key.k)
	}
	if res, ok := d.cachedOps(key); ok {
		return res, nil
	}
	res, err := opsim.Run(d.GT, d.opsConfigFor(key))
	if err != nil {
		return nil, fmt.Errorf("experiments: ops %v/%v k=%d: %w", key.method, key.model, key.k, err)
	}
	d.storeOps(key, res)
	return res, nil
}

// Operational replays the history through the live sharded chain for every
// method under both multi-shard models at k shards — the end-to-end
// measurement the paper's edge-cut curves proxy: cross-shard messages,
// settlement latency, migrated state and failed transactions, per window
// and in total. Uncached combinations run in parallel (each co-simulation
// only reads the shared trace, like sim.RunSweep's replays).
func (d *Dataset) Operational(k int) ([]OperationalRow, error) {
	if k < 1 {
		return nil, fmt.Errorf("experiments: ops: k must be >= 1, got %d", k)
	}
	var missing []opsKey
	for _, model := range Models() {
		for _, m := range sim.Methods() {
			key := opsKey{m, model, k}
			if _, ok := d.cachedOps(key); !ok {
				missing = append(missing, key)
			}
		}
	}
	if len(missing) > 0 {
		results := make([]*opsim.Result, len(missing))
		errs := make([]error, len(missing))
		sim.RunIndexed(len(missing), func(i int) {
			results[i], errs[i] = opsim.Run(d.GT, d.opsConfigFor(missing[i]))
		})
		for i, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("experiments: ops %v/%v k=%d: %w",
					missing[i].method, missing[i].model, k, err)
			}
			d.storeOps(missing[i], results[i])
		}
	}
	var rows []OperationalRow
	for _, model := range Models() {
		for _, m := range sim.Methods() {
			res, err := d.operationalRun(opsKey{m, model, k})
			if err != nil {
				return nil, err
			}
			rows = append(rows, OperationalRow{Method: m, Model: model, K: k, Result: res})
		}
	}
	return rows, nil
}
