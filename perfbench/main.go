// Command perfbench is the repository benchmark. It drives the pipeline's
// layers from outside — their public functions and the seams they expose —
// on one of three workloads, checks that every output is correct, and
// prints each metric by name and unit, ending with one JSON line:
//
//	bash perfbench/run.sh --workload replay-decay --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it makes
// a separate traced run that attributes wall time to the layers, prints the
// per-layer metrics and writes its spans under .bench_build/spans/. See
// README.md for the workloads and the layer → metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"

	"ethpart/internal/stats"
)

// metricDef names one reported metric and its unit. BENCHMARK.json lists
// the same names and units (checked by TestTablesMatchBenchmarkJSON).
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run. Every workload reports all
// of them; README.md says what each means on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"records_per_s", "1/s"},
	{"alloc_bytes_per_record", "B"},
	{"peak_rss_mb", "MB"},
	{"dynamic_cut", "ratio"},
	{"dynamic_balance", "ratio"},
	{"moved_slots", "count"},
	{"lookups_per_s", "1/s"},
	{"lookup_p50_us", "us"},
	{"lookup_p90_us", "us"},
}

// perLayer are the metrics of a traced run, named after the module that
// does the work. A layer a workload does not exercise reports zero.
var perLayer = []metricDef{
	{"workload.gen_s", "s"},
	{"workload.alloc_mb", "MB"},
	{"sim.ingest_s", "s"},
	{"partition.repartitions", "count"},
	{"partition.repartition_s", "s"},
	{"partition.repartition_ms_p50", "ms"},
	{"partition.repartition_ms_max", "ms"},
	{"partition.moves", "count"},
	{"graph.sweep_s", "s"},
	{"graph.sweep_touched", "count"},
	{"graph.live_vertices_max", "count"},
	{"directory.commits", "count"},
	{"directory.commit_s", "s"},
	{"directory.commit_us_p50", "us"},
	{"directory.commit_us_p99", "us"},
	{"directory.batch_entries", "count"},
	{"directory.cold_entries", "count"},
	{"directory.retired", "count"},
	{"directory.rehydrated", "count"},
	{"directory.hints_pushed", "count"},
	{"directory.hints_dropped", "count"},
	{"directory.promoted", "count"},
	{"shardchain.step_s", "s"},
	{"shardchain.blocks", "count"},
	{"shardchain.step_us_per_tx", "us"},
	{"shardchain.messages", "count"},
	{"shardchain.migrations", "count"},
	{"shardchain.migrated_slots", "count"},
	{"opsim.run_s", "s"},
	{"opsim.unattributed_s", "s"},
	{"dirserve.flip_us_p50", "us"},
	{"dirserve.flip_us_p99", "us"},
	{"dirserve.apply_lag_mean", "epochs"},
	{"dirserve.apply_lag_max", "epochs"},
	{"dirserve.cold_hit_ratio", "ratio"},
	{"dirserve.stale_batches", "count"},
	{"dirserve.evictions", "count"},
	{"dirserve.behind", "count"},
	{"dirserve.repins", "count"},
	{"dirserve.replica_dups", "count"},
	{"dirserve.lookup_us_p99", "us"},
	{"dirserve.lookup_batches", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"trace.overhead_pct", "%"},
}

// setups is how many times a run sets up; setup_s is their median.
const setups = 3

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// scale is the workload generator's rate multiplier; the benchmark runs
	// at 0.002 and the tests at a tiny scale.
	scale float64
	// spansDir receives the traced run's spans.
	spansDir string
}

// outcome is what a workload measured and checked.
type outcome struct {
	metrics map[string]float64
	// attempted and failed count operations: replayed records, directory
	// commits and lookup batches. A failed call is counted here, never
	// swallowed.
	attempted, failed int64
	// problems lists every failed correctness check.
	problems []string
	spans    []span
}

func newOutcome() *outcome { return &outcome{metrics: make(map[string]float64)} }

// check records a failed correctness check when ok is false.
func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(config) (*outcome, error){
	"replay-decay":          func(c config) (*outcome, error) { return runReplay(c, decayConfig()) },
	"replay-full-migration": func(c config) (*outcome, error) { return runReplay(c, fullMigrationConfig()) },
	"serve-net":             runServe,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs the workload and prints the report. It returns the
// process exit code: 0 for a correct run, 1 for a failed check or error,
// 2 for bad arguments.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "replay-decay, replay-full-migration or serve-net")
	seed := fs.Int64("seed", 1, "workload seed (1 is the default, 2 the held-out seed)")
	seconds := fs.Int("seconds", 5, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "1 makes the traced run and prints per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (replay-decay|replay-full-migration|serve-net), --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	cfg := config{
		workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, scale: 0.002,
		spansDir: filepath.Join(".bench_build", "spans"),
	}
	return execute(cfg, drive, stdout, stderr)
}

// execute runs one workload and prints its report; see run.
func execute(cfg config, drive func(config) (*outcome, error), stdout, stderr io.Writer) int {
	out, err := drive(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	rss, err := peakRSSMB()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	out.metrics["peak_rss_mb"] = rss
	if cfg.trace {
		path := filepath.Join(cfg.spansDir, fmt.Sprintf("%s-seed%d.csv", cfg.workload, cfg.seed))
		if err := writeSpans(path, out.spans); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %d written to %s\n", len(out.spans), path)
	}
	if err := report(stdout, cfg, out); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, p := range out.problems {
		fmt.Fprintf(stderr, "perfbench: check failed: %s\n", p)
	}
	if len(out.problems) > 0 {
		return 1
	}
	return 0
}

// metricJSON is one metric in the result line.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints every metric of the run's kind, one per line, then the
// JSON result line. An end-to-end metric the workload did not set is a bug
// in the benchmark and fails the run.
func report(w io.Writer, cfg config, out *outcome) error {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]metricJSON `json:"metrics"`
	}{len(out.problems) == 0, out.attempted, out.failed, make(map[string]metricJSON)}
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok && !cfg.trace {
			return fmt.Errorf("%s: metric %s not measured", cfg.workload, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s is %v", cfg.workload, d.name, v)
		}
		fmt.Fprintf(w, "%-30s %16.6g %s\n", d.name, v, d.unit)
		res.Metrics[d.name] = metricJSON{v, d.unit}
	}
	errRate := 0.0
	if out.attempted > 0 {
		errRate = float64(out.failed) / float64(out.attempted)
	}
	fmt.Fprintf(w, "%-30s %16d\n%-30s %16d\n%-30s %16.6g ratio\n",
		"attempted", out.attempted, "failed", out.failed, "error_rate", errRate)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// median returns the median of xs (zero when empty).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the exact, interpolated p-quantile of xs (zero when
// empty). End-to-end latencies use it rather than stats.LatencyHist, whose
// answers step by a bucket width (6.25%): a reported metric must move
// smoothly with the latency it measures.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return stats.Quantile(s, p)
}

// histQuantileUs reports the p-quantile of ns in microseconds through the
// repository's exact-bucket histogram.
func histQuantileUs(ns []int64, p float64) float64 {
	var h stats.LatencyHist
	for _, v := range ns {
		h.Record(v)
	}
	return float64(h.Quantile(p)) / 1e3
}

// sum adds ns.
func sum(ns []int64) int64 {
	var t int64
	for _, v := range ns {
		t += v
	}
	return t
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports kilobytes
}

// gcProbe holds the Go runtime's GC counters at the start of a phase.
type gcProbe struct {
	cycles          uint64
	gcCPU, totalCPU float64
}

func readGC() gcProbe {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return gcProbe{cycles: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64(), totalCPU: s[2].Value.Float64()}
}

// recordGC stores the GC cycles since p and the GC share of the CPU time
// available to the process (GOMAXPROCS × wall time) since p.
func recordGC(o *outcome, p gcProbe) {
	q := readGC()
	o.metrics["runtime.gc_cycles"] = float64(q.cycles - p.cycles)
	if d := q.totalCPU - p.totalCPU; d > 0 {
		o.metrics["runtime.gc_cpu_fraction"] = (q.gcCPU - p.gcCPU) / d
	}
}

// totalAlloc returns the cumulative bytes allocated by the process.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
