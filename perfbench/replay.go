package main

import (
	"fmt"
	"net"
	"runtime"
	"slices"
	"time"

	"ethpart/internal/directory"
	"ethpart/internal/dirserve"
	"ethpart/internal/graph"
	"ethpart/internal/opsim"
	"ethpart/internal/shardchain"
	"ethpart/internal/sim"
	"ethpart/internal/workload"
)

// decayConfig is replay-decay: the ROADMAP's profiled configuration, where
// the directory's cold tier makes commits most of the run.
func decayConfig() opsim.Config {
	return opsim.Config{
		Sim:   sim.Config{Method: sim.MethodRMetis, K: 4, DecayHalfLife: 48 * time.Hour},
		Model: shardchain.ModelReceipts,
	}
}

// fullMigrationConfig is replay-full-migration: the paper's full-history
// mode. The cold tier stays empty and full-graph repartitions dominate, so
// a directory change should show no effect here.
func fullMigrationConfig() opsim.Config {
	return opsim.Config{
		Sim:   sim.Config{Method: sim.MethodMetis, K: 4},
		Model: shardchain.ModelMigration,
	}
}

// lookupBatch is the number of IDs in one lookup batch, on every workload.
const lookupBatch = 256

// generate runs one set-up's trace generation and reports its cost.
func generate(cfg config, rec *recorder) (gt *sim.GeneratedTrace, wall time.Duration, alloc uint64, err error) {
	sp := rec.begin("workload.generate", -1)
	a0 := totalAlloc()
	t0 := time.Now()
	gt, err = sim.Generate(workload.Config{Seed: cfg.seed, Scale: cfg.scale})
	wall = time.Since(t0)
	rec.end(sp)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("generating trace: %w", err)
	}
	return gt, wall, totalAlloc() - a0, nil
}

// setupTraces generates the trace setups times (the same seed gives the
// same trace) and records setup_s and the workload layer's cost as medians.
func setupTraces(cfg config, o *outcome, rec *recorder) (*sim.GeneratedTrace, error) {
	var walls, allocs []float64
	var gt *sim.GeneratedTrace
	for range setups {
		g, wall, alloc, err := generate(cfg, rec)
		if err != nil {
			return nil, err
		}
		gt = g
		walls = append(walls, wall.Seconds())
		allocs = append(allocs, float64(alloc)/(1<<20))
	}
	o.metrics["setup_s"] = median(walls)
	o.metrics["workload.gen_s"] = median(walls)
	o.metrics["workload.alloc_mb"] = median(allocs)
	return gt, nil
}

// countingCommitter sits between the publisher and a directory (or, in
// serve-net, between the fan-out and the primary). It counts commits, the
// entries they carry and the calls that fail, and with a recorder opens a
// span around each commit under parent.
type countingCommitter struct {
	inner  directory.Committer
	rec    *recorder
	parent int

	commits, failed, entries int64
}

func (c *countingCommitter) CommitBatch(b directory.Batch, wave bool) (uint64, error) {
	sp := c.rec.begin("directory.CommitBatch", c.parent)
	e, err := c.inner.CommitBatch(b, wave)
	c.rec.end(sp)
	c.commits++
	c.entries += int64(len(b.Set) + len(b.SetCold) + len(b.Retire) + len(b.Promote))
	if err != nil {
		c.failed++
	}
	return e, err
}

// replayRun is one opsim.Run and what the benchmark saw of it.
type replayRun struct {
	res   *opsim.Result
	wall  time.Duration
	alloc uint64
	cc    *countingCommitter
	// want is the last shard the placement callbacks reported for each
	// vertex (-1: never placed) — the oracle for the final directory view.
	want []int32
}

// replayOnce runs opsim.Run once over gt. With a recorder, the run is a
// root span and each directory commit a child span.
func replayOnce(gt *sim.GeneratedTrace, oc opsim.Config, rec *recorder) (*replayRun, error) {
	r := &replayRun{want: make([]int32, gt.Registry.Len()), cc: &countingCommitter{rec: rec}}
	for i := range r.want {
		r.want[i] = -1
	}
	oc.Sim.OnPlace = func(v graph.VertexID, shard int) { r.want[v] = int32(shard) }
	oc.Sim.OnMove = func(v graph.VertexID, _, to int) { r.want[v] = int32(to) }
	oc.DirCommitter = func(d *directory.Directory) (directory.Committer, error) {
		r.cc.inner = d
		return r.cc, nil
	}
	runtime.GC()
	a0 := totalAlloc()
	root := rec.begin("opsim.Run", -1)
	r.cc.parent = root
	t0 := time.Now()
	res, err := opsim.Run(gt, oc)
	r.wall = time.Since(t0)
	rec.end(root)
	r.alloc = totalAlloc() - a0
	if err != nil {
		return nil, fmt.Errorf("opsim.Run: %w", err)
	}
	r.res = res
	return r, nil
}

// checkReplay verifies one run's outputs: every record replayed and
// accounted, no receipt left pending, and a final directory view equal,
// entry by entry, to the placements the simulator announced.
func checkReplay(o *outcome, gt *sim.GeneratedTrace, r *replayRun) {
	n := int64(len(gt.Records))
	t := r.res.Totals
	o.check(r.res.Replayed == n, "replayed %d of %d records", r.res.Replayed, n)
	o.check(t.LocalTxs+t.CrossTxs+t.Failed == n,
		"local %d + cross %d + failed %d transactions != %d records", t.LocalTxs, t.CrossTxs, t.Failed, n)
	o.check(t.ReceiptsSettled == t.CrossTxs,
		"%d cross-shard receipts still pending after the settle drain", t.CrossTxs-t.ReceiptsSettled)
	view := r.res.DirectoryView
	if view == nil {
		o.check(false, "opsim.Run returned no directory view")
		return
	}
	placed, wrong := 0, 0
	for v, want := range r.want {
		if want < 0 {
			continue
		}
		placed++
		if got, ok := view.Lookup(graph.VertexID(v)); !ok || got != int(want) {
			wrong++
		}
	}
	o.check(wrong == 0, "directory view disagrees with the placement callbacks on %d of %d vertices", wrong, placed)
	o.check(view.Len() == placed, "directory view holds %d entries, callbacks placed %d", view.Len(), placed)
}

// runReplay drives a replay workload: set up the trace, then run opsim.Run
// until the measured phase has lasted cfg.seconds (at least once), then
// probe reads of the final directory view. With cfg.trace it
// then makes one traced run and a standalone sim pass to attribute the
// run's wall time to the layers.
func runReplay(cfg config, oc opsim.Config) (*outcome, error) {
	o := newOutcome()
	var rec *recorder
	if cfg.trace {
		rec = newRecorder(time.Now())
	}
	gt, err := setupTraces(cfg, o, rec)
	if err != nil {
		return nil, err
	}
	records := float64(len(gt.Records))

	var rates, allocs, walls []float64
	var last *replayRun
	start := time.Now()
	for len(rates) == 0 || time.Since(start) < cfg.seconds {
		r, err := replayOnce(gt, oc, nil)
		if err != nil {
			return nil, err
		}
		countReplay(o, r)
		checkReplay(o, gt, r)
		if last != nil {
			o.check(simEqual(r.res.Sim, last.res.Sim), "two runs of the same trace disagree on the simulator's result")
		}
		last = r
		walls = append(walls, r.wall.Seconds())
		rates = append(rates, records/r.wall.Seconds())
		allocs = append(allocs, float64(r.alloc)/records)
	}
	o.metrics["records_per_s"] = median(rates)
	o.metrics["alloc_bytes_per_record"] = median(allocs)
	o.metrics["dynamic_cut"] = last.res.Sim.OverallDynamicCut
	o.metrics["dynamic_balance"] = last.res.Sim.OverallDynamicBalance
	o.metrics["moved_slots"] = float64(last.res.Sim.TotalMovedSlots)
	if err := probeReads(o, gt, last, oc.Sim.K); err != nil {
		return nil, err
	}

	if cfg.trace {
		if err := traceReplay(o, gt, oc, rec, median(walls)); err != nil {
			return nil, err
		}
		o.spans = rec.spans
	}
	return o, nil
}

// simEqual compares the deterministic run-level fields of two simulator
// results.
func simEqual(a, b *sim.Result) bool {
	return a.OverallDynamicCut == b.OverallDynamicCut &&
		a.OverallDynamicBalance == b.OverallDynamicBalance &&
		a.TotalMovedSlots == b.TotalMovedSlots && a.TotalMoves == b.TotalMoves &&
		a.Repartitions == b.Repartitions
}

// countReplay adds one run's operations to the tally: every record and
// every directory commit is an attempt; rejected transactions and failed
// commits are failures.
func countReplay(o *outcome, r *replayRun) {
	o.attempted += r.res.Replayed + r.cc.commits
	o.failed += r.res.Totals.Failed + r.cc.failed
}

// readProbe is how long a replay's readers run against its final
// directory.
const readProbe = 3 * time.Second

// probeReads serves the run's final directory view — the state a replay
// leaves for its readers — from one dirserve server on loopback, loaded
// with one commit that keeps each entry's tier, and has closed-loop readers
// look it up for readProbe with the batches serve-net sends.
func probeReads(o *outcome, gt *sim.GeneratedTrace, r *replayRun, k int) error {
	view := r.res.DirectoryView
	d := directory.New(directory.Config{})
	b := directory.Batch{Shards: view.Shards()}
	view.Each(func(v graph.VertexID, shard int) bool {
		if _, cold, _ := view.LookupTier(v); cold {
			b.SetCold = append(b.SetCold, directory.Move{V: v, To: shard})
		} else {
			b.Set = append(b.Set, directory.Move{V: v, To: shard})
		}
		return true
	})
	if _, err := d.Commit(b); err != nil {
		return fmt.Errorf("loading the final view: %w", err)
	}
	loaded := d.Current()
	o.check(loaded.Len() == view.Len() && loaded.ColdLen() == view.ColdLen() && diverged(view, loaded) == 0,
		"the probe's directory does not hold the final view")
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := dirserve.Serve(l, dirserve.ServerConfig{Dir: d})
	defer srv.Close()
	pool, err := startReaders(readersPerCPU*runtime.NumCPU(), []string{srv.Addr()}, endpoints(gt), k, d, nil)
	if err != nil {
		return err
	}
	time.Sleep(readProbe)
	recordLookups(o, pool.finish(o, k))
	return nil
}

// endpoints lists the trace's record endpoints in record order (From, To,
// From, To, ...) — the ID stream every lookup workload walks.
func endpoints(gt *sim.GeneratedTrace) []graph.VertexID {
	ids := make([]graph.VertexID, 0, 2*len(gt.Records))
	for _, r := range gt.Records {
		ids = append(ids, graph.VertexID(r.From), graph.VertexID(r.To))
	}
	return ids
}

// traceReplay makes the traced run: one opsim.Run with a span per directory
// commit, then a standalone sim pass with the same configuration, because
// opsim.Run cannot be opened from outside. untracedWall is the untraced
// runs' median wall time, the base of the tracing overhead.
func traceReplay(o *outcome, gt *sim.GeneratedTrace, oc opsim.Config, rec *recorder, untracedWall float64) error {
	gc := readGC()
	r, err := replayOnce(gt, oc, rec)
	if err != nil {
		return err
	}
	recordGC(o, gc)
	countReplay(o, r)
	checkReplay(o, gt, r)
	res := r.res

	pass, err := simPass(gt, oc.Sim, rec)
	if err != nil {
		return err
	}
	o.check(pass.OverallDynamicCut == res.Sim.OverallDynamicCut &&
		pass.OverallDynamicBalance == res.Sim.OverallDynamicBalance &&
		pass.TotalMovedSlots == res.Sim.TotalMovedSlots,
		"the standalone sim pass (cut %v, balance %v, moved slots %d) does not reproduce opsim.Run's (%v, %v, %d)",
		pass.OverallDynamicCut, pass.OverallDynamicBalance, pass.TotalMovedSlots,
		res.Sim.OverallDynamicCut, res.Sim.OverallDynamicBalance, res.Sim.TotalMovedSlots)

	var sweepNs int64
	var touched, live int
	for _, sw := range res.Sweeps {
		sweepNs += sw.SweepNanos
		touched += sw.Touched
		live = max(live, sw.LiveVertices)
	}
	lt := attribute(rec.spans, res.StepNanos, sweepNs)
	m := o.metrics
	m["opsim.run_s"] = lt.run
	m["opsim.unattributed_s"] = lt.unattributed
	m["trace.overhead_pct"] = (lt.run/untracedWall - 1) * 100
	m["sim.ingest_s"] = lt.ingest

	reparts := durations(rec.spans, "partition.repartition")
	o.check(len(reparts) == pass.Repartitions, "%d repartition spans for %d repartitions", len(reparts), pass.Repartitions)
	m["partition.repartitions"] = float64(len(reparts))
	m["partition.repartition_s"] = lt.repartition
	m["partition.repartition_ms_p50"] = histQuantileUs(reparts, 0.5) / 1e3
	m["partition.repartition_ms_max"] = float64(slices.Max(append(reparts, 0))) / 1e6
	m["partition.moves"] = float64(pass.TotalMoves)

	m["graph.sweep_s"] = lt.sweep
	m["graph.sweep_touched"] = float64(touched)
	m["graph.live_vertices_max"] = float64(live)

	commits := durations(rec.spans, "directory.CommitBatch")
	ds := res.DirectoryStats
	m["directory.commits"] = float64(r.cc.commits)
	m["directory.commit_s"] = lt.commit
	m["directory.commit_us_p50"] = histQuantileUs(commits, 0.50)
	m["directory.commit_us_p99"] = histQuantileUs(commits, 0.99)
	m["directory.batch_entries"] = float64(r.cc.entries)
	m["directory.cold_entries"] = float64(ds.Cold)
	m["directory.retired"] = float64(ds.Retired)
	m["directory.rehydrated"] = float64(ds.Rehydrated)
	m["directory.promoted"] = float64(ds.Promoted)

	t := res.Totals
	m["shardchain.step_s"] = lt.step
	m["shardchain.blocks"] = float64(res.Blocks)
	if txs := t.LocalTxs + t.CrossTxs + t.Failed; txs > 0 {
		m["shardchain.step_us_per_tx"] = float64(res.StepNanos) / 1e3 / float64(txs)
	}
	m["shardchain.messages"] = float64(t.Messages)
	m["shardchain.migrations"] = float64(t.Migrations)
	m["shardchain.migrated_slots"] = float64(t.MigratedSlots)
	return nil
}

// simPass replays gt through a bare simulator configured like opsim.Run's,
// with one span per Simulator.Process under a sim.pass root. A call in
// which the repartitioning policy fired is renamed partition.repartition,
// and each decay sweep it ran becomes a graph.sweep child of its measured
// length, placed at the call's start, where the window roll-over runs it.
func simPass(gt *sim.GeneratedTrace, sc sim.Config, rec *recorder) (*sim.Result, error) {
	if sc.StorageSlots == nil {
		sc.StorageSlots = gt.StorageSlots
	}
	fired := false
	sc.OnRepartition = func(time.Time, int) { fired = true }
	s, err := sim.New(sc)
	if err != nil {
		return nil, fmt.Errorf("sim pass: %w", err)
	}
	root := rec.begin("sim.pass", -1)
	for _, record := range gt.Records {
		swept := len(s.Sweeps())
		fired = false
		sp := rec.begin("sim.Process", root)
		err := s.Process(record)
		rec.end(sp)
		if err != nil {
			return nil, fmt.Errorf("sim pass: %w", err)
		}
		if fired {
			rec.spans[sp].name = "partition.repartition"
		}
		at := rec.spans[sp].start
		for _, sw := range s.Sweeps()[swept:] {
			rec.spans = append(rec.spans, span{name: "graph.sweep", start: at, end: at + sw.SweepNanos, parent: sp})
			at += sw.SweepNanos
		}
	}
	rec.end(root)
	return s.Finish(), nil
}

// layerTimes is a traced replay's opsim.Run wall time split across the
// layers, in seconds. The parts add up to run.
type layerTimes struct {
	run, ingest, repartition, sweep, commit, step, unattributed float64
}

// attribute splits the traced opsim.Run span's wall time. Commits are the
// self time of its directory.CommitBatch children; ingest and repartition
// are the self times of the standalone sim pass's spans; step and sweep
// are opsim's own measurements (Result.StepNanos and Result.Sweeps). What
// no layer claims is opsim.unattributed_s: the bridge's own work, such as
// migrating accounts after a repartition.
func attribute(spans []span, stepNs, sweepNs int64) layerTimes {
	self := selfTimes(spans)
	lt := layerTimes{
		run:         secs(sum(durations(spans, "opsim.Run"))),
		ingest:      secs(self["sim.Process"]),
		repartition: secs(self["partition.repartition"]),
		sweep:       secs(sweepNs),
		commit:      secs(self["directory.CommitBatch"]),
		step:        secs(stepNs),
	}
	lt.unattributed = lt.run - (lt.ingest + lt.repartition + lt.sweep + lt.commit + lt.step)
	return lt
}

func secs(ns int64) float64 { return float64(ns) / 1e9 }
