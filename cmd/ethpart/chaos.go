package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	"ethpart/internal/experiments"
	"ethpart/internal/fault"
	"ethpart/internal/opsim"
	"ethpart/internal/report"
	"ethpart/internal/shardchain"
	"ethpart/internal/sim"
	"ethpart/internal/workload"
)

// runChaos executes the chaos subcommand: the seeded fault-scenario
// library over a drifting-era trace. Every scenario replays the same
// trace through the operational co-simulation with a fault schedule armed
// — shard crash-stops recovered from the durable log, receipt storms of
// drops/delays/duplicates, stalled epoch flips with transient commit
// failures — and cross-checks the outcome against a fault-free oracle
// run: totals, per-shard state roots, the home map and every transaction
// receipt must converge byte-identical, and no torn directory commit may
// ever be observed. It exits non-zero on any invariant violation.
func runChaos(args []string) error {
	fs := flag.NewFlagSet("ethpart chaos", flag.ContinueOnError)
	scenarioFlag := fs.String("scenario", "all", "fault scenario: crash-wave|receipt-loss|dup-storm|flip-stall|mixed|all")
	workloadFlag := fs.String("workload", "", "inject faults into a named library workload scenario instead of the drifting-era trace")
	arrival := fs.String("arrival", "", "override the workload scenario's arrival process: poisson|diurnal|flash")
	hours := fs.Float64("hours", 0, "override the workload scenario's arrival duration (hours)")
	seed := fs.Int64("seed", 1, "trace and fault-schedule seed")
	k := fs.Int("k", 4, "number of shards")
	methodFlag := fs.String("method", "tr-metis", "repartitioning method (waves feed the flip-stall scenarios)")
	eras := fs.Int("eras", 6, "drifting eras in the trace")
	windows := fs.Int("windows-per-era", 6, "4-hour windows per era")
	netMode := fs.Bool("net", false, "replicate directory commits to replica processes over loopback TCP")
	netReplicas := fs.Int("replicas", 2, "replica process count (with -net); each gets its own fault plane")
	csvOut := fs.Bool("csv", false, "emit CSV instead of the table")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workloadFlag == "" && (*arrival != "" || *hours != 0) {
		return fmt.Errorf("chaos: -arrival/-hours require -workload")
	}
	method, err := sim.ParseMethod(*methodFlag)
	if err != nil {
		return err
	}

	var gt *sim.GeneratedTrace
	if *workloadFlag != "" {
		sc, err := workload.ResolveScenario(*workloadFlag, *arrival, *hours, *seed)
		if err != nil {
			return err
		}
		// Block the scenario at the drifting-era trace's spacing so the
		// chaos policy parameters below (windows, repartition cadence)
		// keep their meaning.
		sc.BlockInterval = 2 * time.Hour
		if gt, err = sim.GenerateScenario(sc); err != nil {
			return err
		}
	} else {
		gt = experiments.DecayTrace(experiments.DecayParams{
			Seed: *seed, K: *k, Eras: *eras, WindowsPerEra: *windows,
		})
	}
	// An upper bound on chain height: the trace's blocks plus the settle
	// drain; crash schedules may reach into the drain.
	traceBlocks := uint64(48)
	if n := len(gt.Records); n > 0 {
		traceBlocks += gt.Records[n-1].Block + 1
	}

	baseCfg := func() opsim.Config {
		return opsim.Config{
			Sim: sim.Config{
				Method: method, K: *k,
				Window:            4 * time.Hour,
				RepartitionEvery:  2 * 24 * time.Hour,
				MinRepartitionGap: 24 * time.Hour,
				TriggerWindows:    2,
				CutThreshold:      0.2,
				BalanceThreshold:  1.5,
				DecayHalfLife:     12 * time.Hour,
			},
			Model:   shardchain.ModelReceipts,
			Capture: true,
			// Budget for injected backoff chains: a dropped receipt can take
			// MaxAttempts tries with capped exponential backoff before its
			// forced delivery.
			MaxSettleSteps: 600,
		}
	}

	scenarios, err := chaosScenarios(*scenarioFlag, uint64(*seed), traceBlocks, *k)
	if err != nil {
		return err
	}

	fmt.Printf("oracle: replaying %s records fault-free (k=%d, %s, receipts model)\n",
		report.FormatCount(int64(len(gt.Records))), *k, method)
	oracle, err := opsim.Run(gt, baseCfg())
	if err != nil {
		return fmt.Errorf("chaos: oracle run: %w", err)
	}

	headers := []string{
		"scenario", "crashes", "replayed", "recover(us)", "dropped", "delayed",
		"dups", "suppressed", "stalls", "stale-blk", "max-lag", "torn", "violations",
	}
	if *netMode {
		headers = append(headers, "r-applied", "r-stalls", "r-torn")
	}
	var rows [][]string
	totalViolations := 0
	for _, sc := range scenarios {
		inj, err := fault.New(sc.sched)
		if err != nil {
			return fmt.Errorf("chaos: scenario %s: %w", sc.name, err)
		}
		cfg := baseCfg()
		cfg.Fault = inj
		var cn *chaosNet
		if *netMode {
			// Replicate the scenario's directory commits to replica processes
			// over real sockets; each replica applies through its own fault
			// plane (derived seed) and must still converge to the oracle view.
			if cn, err = startChaosNet(*netReplicas, sc.sched); err != nil {
				return fmt.Errorf("chaos: scenario %s: %w", sc.name, err)
			}
			cfg.DirCommitter = cn.committer
		}
		res, err := opsim.Run(gt, cfg)
		if err != nil {
			if cn != nil {
				cn.close()
			}
			return fmt.Errorf("chaos: scenario %s: %w", sc.name, err)
		}
		violations := compareToOracle(oracle, res)
		var netStats chaosNetStats
		if cn != nil {
			var nv []string
			netStats, nv = cn.finish(res.DirectoryView)
			violations = append(violations, nv...)
		}
		totalViolations += len(violations)
		for _, v := range violations {
			fmt.Fprintf(os.Stderr, "chaos: %s: INVARIANT VIOLATION: %s\n", sc.name, v)
		}
		m := res.Fault
		recoverUS := "0"
		if m.Crashes > 0 {
			recoverUS = fmt.Sprintf("%.1f", float64(m.RecoveryNanos)/float64(m.Crashes)/1e3)
		}
		row := []string{
			sc.name,
			strconv.FormatUint(m.Crashes, 10),
			strconv.FormatUint(m.ItemsReplayed, 10),
			recoverUS,
			strconv.FormatUint(m.Dropped, 10),
			strconv.FormatUint(m.Delayed, 10),
			strconv.FormatUint(m.Duplicated, 10),
			strconv.FormatUint(m.DupsSuppressed, 10),
			strconv.FormatUint(m.WaveStalls, 10),
			strconv.FormatUint(m.StaleBlocks, 10),
			strconv.FormatUint(m.MaxEpochLag, 10),
			strconv.FormatUint(m.TornCommits, 10),
			strconv.Itoa(len(violations)),
		}
		if *netMode {
			row = append(row,
				strconv.FormatUint(netStats.applied, 10),
				strconv.FormatUint(netStats.waveStalls, 10),
				strconv.FormatUint(netStats.torn, 10),
			)
		}
		rows = append(rows, row)
	}

	if *csvOut {
		if err := report.CSV(os.Stdout, headers, rows); err != nil {
			return err
		}
	} else {
		if err := report.Table(os.Stdout, headers, rows); err != nil {
			return err
		}
	}
	if totalViolations > 0 {
		return fmt.Errorf("chaos: %d invariant violation(s)", totalViolations)
	}
	if *netMode {
		fmt.Printf("\nall scenarios converged byte-identical to the fault-free oracle; zero invariant violations\n"+
			"every replica view (%d per scenario, own fault planes) matched the oracle entry-by-entry; zero torn epochs\n",
			*netReplicas)
		return nil
	}
	fmt.Println("\nall scenarios converged byte-identical to the fault-free oracle; zero invariant violations")
	return nil
}

// chaosScenario is one named fault schedule.
type chaosScenario struct {
	name  string
	sched fault.Schedule
}

// chaosScenarios builds the scenario library (or the one selected).
func chaosScenarios(sel string, seed, blocks uint64, k int) ([]chaosScenario, error) {
	all := []chaosScenario{
		{"crash-wave", fault.Schedule{
			Seed:    seed,
			Shards:  k,
			Crashes: fault.PeriodicCrashes(5, blocks, k),
		}},
		{"receipt-loss", fault.Schedule{
			Seed:     seed,
			Shards:   k,
			DropProb: 0.25, DelayProb: 0.2,
		}},
		{"dup-storm", fault.Schedule{
			Seed:    seed,
			Shards:  k,
			DupProb: 0.5, DelayProb: 0.1, ShuffleDeliveries: true,
		}},
		{"flip-stall", fault.Schedule{
			Seed:             seed,
			Shards:           k,
			WaveStallFlushes: 40, CommitFailEvery: 3,
		}},
		{"mixed", fault.Schedule{
			Seed:     seed,
			Shards:   k,
			Crashes:  fault.PeriodicCrashes(7, blocks, k),
			DropProb: 0.15, DelayProb: 0.1, DupProb: 0.2,
			ShuffleDeliveries: true,
			WaveStallFlushes:  25, CommitFailEvery: 5,
		}},
	}
	if sel == "all" || sel == "" {
		return all, nil
	}
	for _, sc := range all {
		if sc.name == sel {
			return []chaosScenario{sc}, nil
		}
	}
	return nil, fmt.Errorf("chaos: unknown scenario %q (crash-wave|receipt-loss|dup-storm|flip-stall|mixed|all)", sel)
}

// compareToOracle checks the convergence invariants of a faulty run
// against the fault-free oracle. Per-window stats are deliberately not
// compared: an injected delay legitimately shifts a settlement into a
// later window; the run-level totals (with the injected share of latency
// subtracted at settlement) must still match exactly.
func compareToOracle(oracle, res *opsim.Result) []string {
	var v []string
	if oracle.Replayed != res.Replayed {
		v = append(v, fmt.Sprintf("replayed %d records, oracle %d", res.Replayed, oracle.Replayed))
	}
	if oracle.Totals != res.Totals {
		v = append(v, fmt.Sprintf("stats diverge: %+v, oracle %+v", res.Totals, oracle.Totals))
	}
	if len(oracle.StateRoots) != len(res.StateRoots) {
		v = append(v, "state root count diverges")
	} else {
		for s := range oracle.StateRoots {
			if oracle.StateRoots[s] != res.StateRoots[s] {
				v = append(v, fmt.Sprintf("shard %d state root diverges: %s, oracle %s",
					s, res.StateRoots[s], oracle.StateRoots[s]))
			}
		}
	}
	if oracle.HomesHash != res.HomesHash {
		v = append(v, "home map diverges")
	}
	if oracle.ReceiptsHash != res.ReceiptsHash {
		v = append(v, "transaction receipts diverge")
	}
	if res.Fault != nil && res.Fault.TornCommits > 0 {
		v = append(v, fmt.Sprintf("%d torn directory commits observed", res.Fault.TornCommits))
	}
	return v
}
