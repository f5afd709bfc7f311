package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ethpart/internal/directory"
	"ethpart/internal/dirserve"
	"ethpart/internal/graph"
)

// readersPerCPU sets how many closed-loop readers a workload runs per CPU.
// With more readers than CPUs the servers are always busy, so batch latency
// tracks the CPU cost of serving a batch. With one reader per CPU it tracked
// thread wake-ups: on a 2-vCPU host, five serve-net runs of one seed moved
// its p50 between 30 and 37 µs (spread 0.21), and two readers per CPU
// brought that to 0.07.
const readersPerCPU = 2

// checkEvery is how often, in batches, a reader checks a whole answer
// against the oracle directory's snapshot at the served epoch.
const checkEvery = 64

// readerPool is a set of closed-loop readers: each holds one
// dirserve.Client dialled to one server and sends its next lookupBatch-ID
// batch when the previous answer arrives. The IDs walk the trace's record
// endpoints in order, each reader from its own offset.
type readerPool struct {
	clients []*dirserve.Client
	stats   []readerStats
	stop    atomic.Bool
	wg      sync.WaitGroup
	start   time.Time
}

// readerStats is one reader's tally; only its reader writes it.
type readerStats struct {
	ids, batches, failed int64
	badShard, mismatched int64
	verified             int64
	samples              []lookupSample
}

// lookupSample is one answered batch: when it completed, in nanoseconds
// since the pool started, and its round trip in microseconds.
type lookupSample struct {
	at int64
	us float64
}

// startReaders dials n readers, spread round-robin over addrs, and starts
// them. Every answer must be a shard in [0,k) or NoShard; every checkEvery-th
// batch is compared with oracle's snapshot at the served epoch when its
// journal still holds that epoch. recs, when non-nil, gives each reader its
// own recorder for a span per LookupBatch.
func startReaders(n int, addrs []string, ids []graph.VertexID, k int, oracle *directory.Directory, recs []*recorder) (*readerPool, error) {
	p := &readerPool{clients: make([]*dirserve.Client, n), stats: make([]readerStats, n)}
	for i := range p.clients {
		c, err := dirserve.Dial(addrs[i%len(addrs)])
		if err != nil {
			for _, c := range p.clients[:i] {
				c.Close()
			}
			return nil, err
		}
		p.clients[i] = c
	}
	if recs == nil {
		recs = make([]*recorder, n)
	}
	// Start from a collected heap, so garbage left by earlier phases does
	// not put a GC cycle inside this one.
	runtime.GC()
	p.start = time.Now()
	for i, c := range p.clients {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			defer c.Close()
			p.read(c, &p.stats[i], ids, i*len(ids)/n, k, oracle, recs[i])
		}()
	}
	return p, nil
}

// read is one reader's loop; it returns when the pool stops or a call
// fails (the failure is counted).
func (p *readerPool) read(c *dirserve.Client, st *readerStats, ids []graph.VertexID, pos, k int, oracle *directory.Directory, rec *recorder) {
	batch := make([]graph.VertexID, lookupBatch)
	out := make([]int32, lookupBatch)
	for !p.stop.Load() {
		for j := range batch {
			batch[j] = ids[pos]
			pos = (pos + 1) % len(ids)
		}
		sp := rec.begin("dirserve.LookupBatch", -1)
		t0 := time.Now()
		epoch, _, err := c.LookupBatch(batch, out)
		el := time.Since(t0)
		rec.end(sp)
		st.batches++
		if err != nil {
			st.failed++
			return
		}
		st.ids += lookupBatch
		st.samples = append(st.samples, lookupSample{time.Since(p.start).Nanoseconds(), float64(el.Nanoseconds()) / 1e3})
		for _, sh := range out {
			if sh != dirserve.NoShard && (sh < 0 || int(sh) >= k) {
				st.badShard++
			}
		}
		if st.batches%checkEvery != 0 {
			continue
		}
		snap, ok := oracle.AtEpoch(epoch)
		if !ok {
			continue // evicted from the oracle's journal: not checkable
		}
		st.verified++
		for j, v := range batch {
			sh, ok := snap.Lookup(v)
			if !ok {
				sh = directory.NoShard
			}
			if int32(sh) != out[j] {
				st.mismatched++
				break
			}
		}
	}
}

// readResult is what a pool measured. rate, p50Us, p90Us and p99Us are
// medians over the phase's one-second windows: a burst of interference from
// outside the process moves one window, not the reported figure.
type readResult struct {
	ids, batches                     int64
	rate, p50Us, p90Us, p99Us        float64
	stale, evictions, behind, repins int64
}

// finish stops the readers, waits for them, adds their operations to o and
// runs the answer checks.
func (p *readerPool) finish(o *outcome, k int) *readResult {
	p.stop.Store(true)
	p.wg.Wait()
	wall := time.Since(p.start)
	r := &readResult{}
	var verified int64
	var samples []lookupSample
	for i := range p.stats {
		st := &p.stats[i]
		o.attempted += st.batches
		o.failed += st.failed
		r.ids += st.ids
		r.batches += int64(len(st.samples))
		samples = append(samples, st.samples...)
		verified += st.verified
		o.check(st.badShard == 0, "reader %d got %d shard answers outside [0,%d) and NoShard", i, st.badShard, k)
		o.check(st.mismatched == 0, "reader %d: %d sampled batches disagree with the oracle's snapshot at the served epoch", i, st.mismatched)
		c := p.clients[i]
		r.stale += c.StaleBatches
		r.evictions += c.Evictions
		r.behind += c.Behind
		r.repins += c.Repins
	}
	o.check(r.ids > 0, "no lookups answered")
	o.check(verified > 0, "no sampled batch could be checked against the oracle's journal")
	r.rate, r.p50Us, r.p90Us, r.p99Us = windowed(samples, wall)
	return r
}

// windowed splits samples into the phase's whole one-second windows (one
// window when the phase is shorter than that) and returns the medians over
// the windows of each window's lookup rate and batch p50, p90 and p99. A
// window in which no batch completed has rate 0 and no latencies.
func windowed(samples []lookupSample, wall time.Duration) (rate, p50, p90, p99 float64) {
	width := time.Second
	n := int(wall / width)
	if n == 0 {
		n, width = 1, wall
	}
	lat := make([][]float64, n)
	for _, s := range samples {
		if w := int(s.at / int64(width)); w < n {
			lat[w] = append(lat[w], s.us)
		}
	}
	var rates, p50s, p90s, p99s []float64
	for _, l := range lat {
		rates = append(rates, float64(len(l)*lookupBatch)/width.Seconds())
		if len(l) > 0 {
			p50s = append(p50s, quantile(l, 0.50))
			p90s = append(p90s, quantile(l, 0.90))
			p99s = append(p99s, quantile(l, 0.99))
		}
	}
	return median(rates), median(p50s), median(p90s), median(p99s)
}

// recordLookups stores the end-to-end lookup metrics.
func recordLookups(o *outcome, r *readResult) {
	o.metrics["lookups_per_s"] = r.rate
	o.metrics["lookup_p50_us"] = r.p50Us
	o.metrics["lookup_p90_us"] = r.p90Us
	recordTail(o, r)
}

// recordTail stores the lookup far tail, which has no bound, and the
// number of batches it was taken over.
func recordTail(o *outcome, r *readResult) {
	o.metrics["dirserve.lookup_us_p99"] = r.p99Us
	o.metrics["dirserve.lookup_batches"] = float64(r.batches)
}
