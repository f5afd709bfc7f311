package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestSelfTimesNested(t *testing.T) {
	spans := []span{
		{name: "root", start: 0, end: 100, parent: -1},
		{name: "a", start: 10, end: 40, parent: 0},
		{name: "b", start: 30, end: 60, parent: 0}, // overlaps a: counted once
		{name: "leaf", start: 15, end: 20, parent: 1},
		{name: "late", start: 90, end: 120, parent: 0}, // clipped to the parent's end
	}
	got := selfTimes(spans)
	want := map[string]int64{"root": 100 - 50 - 10, "a": 30 - 5, "b": 30, "leaf": 5, "late": 30}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self(%s) = %d, want %d", name, got[name], w)
		}
	}
}

func TestRecorderMergeReindexesParents(t *testing.T) {
	origin := time.Now()
	a, b := newRecorder(origin), newRecorder(origin)
	a.end(a.begin("x", -1))
	p := b.begin("y", -1)
	b.end(b.begin("z", p))
	b.end(p)
	a.merge(b)
	if len(a.spans) != 3 || a.spans[2].parent != 1 || a.spans[1].parent != -1 {
		t.Fatalf("merged spans %+v: want z's parent re-indexed to 1", a.spans)
	}
	var nilRec *recorder
	if i := nilRec.begin("untraced", -1); i != -1 {
		t.Fatalf("nil recorder begin = %d, want -1", i)
	}
	nilRec.end(-1)
}

func TestAttributeResidual(t *testing.T) {
	spans := []span{
		{name: "opsim.Run", start: 0, end: 1000, parent: -1},
		{name: "directory.CommitBatch", start: 100, end: 200, parent: 0},
		{name: "directory.CommitBatch", start: 300, end: 350, parent: 0},
		{name: "sim.pass", start: 2000, end: 2500, parent: -1},
		{name: "sim.Process", start: 2000, end: 2100, parent: 3},
		{name: "partition.repartition", start: 2100, end: 2400, parent: 3},
		{name: "graph.sweep", start: 2100, end: 2150, parent: 5},
	}
	lt := attribute(spans, 200, 60)
	want := layerTimes{run: 1000, ingest: 100, repartition: 250, sweep: 60, commit: 150, step: 200, unattributed: 240}
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"run", lt.run, want.run}, {"ingest", lt.ingest, want.ingest},
		{"repartition", lt.repartition, want.repartition}, {"sweep", lt.sweep, want.sweep},
		{"commit", lt.commit, want.commit}, {"step", lt.step, want.step},
		{"unattributed", lt.unattributed, want.unattributed},
	} {
		if math.Abs(c.got-c.want/1e9) > 1e-15 {
			t.Errorf("%s = %g s, want %g ns", c.name, c.got, c.want)
		}
	}
	parts := lt.ingest + lt.repartition + lt.sweep + lt.commit + lt.step + lt.unattributed
	if math.Abs(parts-lt.run) > 1e-15 {
		t.Errorf("parts add up to %g, run is %g", parts, lt.run)
	}
}

func TestQuantiles(t *testing.T) {
	var xs []float64
	var ns []int64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
		ns = append(ns, int64(i)*1000)
	}
	if got := median(xs); got != 50.5 {
		t.Errorf("median = %g, want 50.5", got)
	}
	if got := quantile(xs, 0.99); math.Abs(got-99.01) > 1e-9 {
		t.Errorf("p99 = %g, want 99.01", got)
	}
	if xs[0] != 100 {
		t.Errorf("quantile sorted its input in place")
	}
	if median(nil) != 0 {
		t.Errorf("median of nothing is not 0")
	}
	// The histogram reports its bucket's upper bound: never below the true
	// quantile, at most 6.25% above it.
	for _, c := range []struct{ p, exactUs float64 }{{0.5, 50}, {0.99, 99}} {
		got := histQuantileUs(ns, c.p)
		if got < c.exactUs || got > c.exactUs*1.0625 {
			t.Errorf("hist p%g = %g us, want within [%g, %g]", c.p*100, got, c.exactUs, c.exactUs*1.0625)
		}
	}
}

func TestWindowedMedians(t *testing.T) {
	sec := int64(time.Second)
	samples := []lookupSample{
		{at: 100, us: 10}, {at: sec / 2, us: 30}, {at: sec - 1, us: 20}, // window 0
		{at: sec + 5, us: 50},    // window 1; window 2 stays empty
		{at: 3*sec + 1, us: 999}, // partial fourth window: dropped
	}
	rate, p50, p90, p99 := windowed(samples, 3*time.Second+time.Second/2)
	// Rates 768, 256 and 0 per second; p50s 20 and 50; p90s 28 and 50;
	// p99s 29.8 and 50.
	if rate != 256 || p50 != 35 || math.Abs(p90-39) > 1e-9 || math.Abs(p99-39.9) > 1e-9 {
		t.Errorf("windowed = rate %g, p50 %g, p90 %g, p99 %g; want 256, 35, 39, 39.9", rate, p50, p90, p99)
	}
	// A phase shorter than a second is one window of its own length.
	rate, p50, _, _ = windowed([]lookupSample{{at: 100, us: 10}, {at: sec / 4, us: 30}}, time.Second/2)
	if rate != 2*lookupBatch*2 || p50 != 20 {
		t.Errorf("short phase: rate %g, p50 %g; want %d, 20", rate, p50, 2*lookupBatch*2)
	}
}

func TestTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var mine []string
	for name := range workloads {
		mine = append(mine, name)
	}
	slices.Sort(names)
	slices.Sort(mine)
	if !slices.Equal(names, mine) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, mine)
	}
	for _, c := range []struct {
		table []metricDef
		json  []struct{ Name, Unit string }
	}{{endToEnd, bj.EndToEnd}, {perLayer, bj.PerLayer}} {
		if len(c.table) != len(c.json) {
			t.Errorf("BENCHMARK.json lists %d metrics, the table %d", len(c.json), len(c.table))
			continue
		}
		for i, d := range c.table {
			if c.json[i].Name != d.name || c.json[i].Unit != d.unit {
				t.Errorf("metric %d: BENCHMARK.json has %s [%s], the table %s [%s]",
					i, c.json[i].Name, c.json[i].Unit, d.name, d.unit)
			}
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "nope"},
		{"--workload", "serve-net", "--trace", "2"},
		{"--workload", "serve-net", "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("run(%q) = %d with output %q, want 2 and no result", args, code, out.String())
		}
	}
}

// TestWorkloadsTinyScale runs every workload, untraced and traced, on the
// default and the held-out seed at a tiny scale with every correctness
// check on, and checks the result line.
func TestWorkloadsTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for name, drive := range workloads {
		for _, seed := range []int64{1, 2} {
			for _, traced := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/seed%d/trace%v", name, seed, traced), func(t *testing.T) {
					cfg := config{
						workload: name, seed: seed, seconds: time.Second, trace: traced,
						scale: 0.0001, spansDir: t.TempDir(),
					}
					var out, errOut bytes.Buffer
					if code := execute(cfg, drive, &out, &errOut); code != 0 {
						t.Fatalf("exit %d\n%s%s", code, out.String(), errOut.String())
					}
					lines := strings.Split(strings.TrimSpace(out.String()), "\n")
					var res struct {
						Correct           bool
						Attempted, Failed int64
						Metrics           map[string]struct {
							Value float64
							Unit  string
						}
					}
					if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
						t.Fatalf("last line is not the result: %v", err)
					}
					defs := endToEnd
					if traced {
						defs = perLayer
					}
					if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Metrics) != len(defs) {
						t.Fatalf("result %+v", res)
					}
					for _, d := range defs {
						m, ok := res.Metrics[d.name]
						if !ok || m.Unit != d.unit {
							t.Errorf("metric %s missing or mis-united: %+v", d.name, m)
						}
						if !traced && m.Value == 0 {
							t.Errorf("end-to-end metric %s is 0", d.name)
						}
					}
				})
			}
		}
	}
}
