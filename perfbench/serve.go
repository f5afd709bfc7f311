package main

import (
	"fmt"
	"net"
	"runtime"
	"time"

	"ethpart/internal/directory"
	"ethpart/internal/dirserve"
	"ethpart/internal/graph"
	"ethpart/internal/sim"
)

// commitRate is serve-net's write rate in the timed phase, in commits per
// second: a fixed write load beside the closed-loop readers.
const commitRate = 500

// schedEvent is one captured commit: a batch the publisher committed as one
// epoch flip, and whether it was a repartition wave.
type schedEvent struct {
	b    directory.Batch
	wave bool
}

// recordingCommitter captures the publisher's commits instead of applying
// them. The publisher hands over freshly allocated batches, so keeping
// them is safe.
type recordingCommitter struct{ events []schedEvent }

func (r *recordingCommitter) CommitBatch(b directory.Batch, wave bool) (uint64, error) {
	r.events = append(r.events, schedEvent{b, wave})
	return uint64(len(r.events)), nil
}

// captured is serve-net's write schedule and the replay that produced it.
type captured struct {
	events []schedEvent
	res    *sim.Result
	wall   time.Duration
	alloc  uint64
}

// capture replays gt through the simulator with replay-decay's settings,
// wired to a directory.Publisher the way opsim.Run wires it, and records
// the commit schedule the publisher produces.
func capture(gt *sim.GeneratedTrace) (*captured, error) {
	sc := decayConfig().Sim
	sc.StorageSlots = gt.StorageSlots
	rc := &recordingCommitter{}
	pub := directory.NewPublisher(rc)
	pub.SetShards(sc.K)
	var s *sim.Simulator
	pub.SetLive(func(v graph.VertexID) bool { return s.Graph().HasVertex(v) })
	var pubErr error
	sc.OnPlace = pub.OnPlace
	sc.OnMove = pub.OnMove
	sc.OnRetire = pub.OnRetire
	sc.OnRepartition = func(_ time.Time, moves int) {
		if err := pub.OnRepartition(moves); err != nil && pubErr == nil {
			pubErr = err
		}
	}
	s, err := sim.New(sc)
	if err != nil {
		return nil, fmt.Errorf("capture: %w", err)
	}
	runtime.GC()
	a0 := totalAlloc()
	t0 := time.Now()
	for _, rec := range gt.Records {
		if err := s.Process(rec); err != nil {
			return nil, fmt.Errorf("capture: %w", err)
		}
		if pubErr == nil {
			pubErr = pub.Flush()
		}
		if pubErr != nil {
			return nil, fmt.Errorf("capture: publishing: %w", pubErr)
		}
	}
	c := &captured{events: rc.events, res: s.Finish(), wall: time.Since(t0)}
	c.alloc = totalAlloc() - a0
	return c, nil
}

// fleet is a dirserve primary and one replica, each serving on its own
// loopback listener. cc wraps the primary as the fan-out's inner committer.
type fleet struct {
	primary, replicaDir *directory.Directory
	ring, replicaRing   *directory.HintRing
	replica             *dirserve.Replica
	primSrv, repSrv     *dirserve.Server
	cc                  *countingCommitter
}

// startFleet starts the primary and the replica servers.
func startFleet() (*fleet, error) {
	f := &fleet{
		primary:     directory.New(directory.Config{}),
		replicaDir:  directory.New(directory.Config{}),
		ring:        directory.NewHintRing(4096),
		replicaRing: directory.NewHintRing(1024),
	}
	f.cc = &countingCommitter{inner: f.primary}
	f.replica = dirserve.NewReplica(f.replicaDir)
	rl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f.repSrv = dirserve.Serve(rl, dirserve.ServerConfig{Dir: f.replicaDir, Hints: f.replicaRing, Replica: f.replica})
	pl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.repSrv.Close()
		return nil, err
	}
	f.primSrv = dirserve.Serve(pl, dirserve.ServerConfig{Dir: f.primary, Hints: f.ring})
	return f, nil
}

// close stops both servers and waits for their connections to end.
func (f *fleet) close() {
	f.primSrv.Close()
	f.repSrv.Close()
}

// prefill commits events through a fan-out and returns once the replica
// has acked every one of them.
func (f *fleet) prefill(events []schedEvent) error {
	fan, err := dirserve.NewFanout(f.cc, f.ring, f.repSrv.Addr())
	if err != nil {
		return err
	}
	for _, ev := range events {
		if _, err := fan.CommitBatch(ev.b, ev.wave); err != nil {
			fan.Close()
			return fmt.Errorf("prefill commit: %w", err)
		}
	}
	return fan.Close()
}

// serveSetup is one serve-net set-up: generate the trace, capture the
// schedule, start the fleet and prefill it with the schedule's first half.
type serveSetup struct {
	ids  []graph.VertexID
	cap  *captured
	fl   *fleet
	wall time.Duration
	// records is the trace's length; genWall and genAlloc what generating
	// it cost.
	records  float64
	genWall  time.Duration
	genAlloc uint64
}

func setupServe(cfg config, o *outcome, rec *recorder) (*serveSetup, error) {
	t0 := time.Now()
	gt, genWall, genAlloc, err := generate(cfg, rec)
	if err != nil {
		return nil, err
	}
	sp := rec.begin("setup.capture", -1)
	c, err := capture(gt)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	o.attempted += int64(len(gt.Records))
	sp = rec.begin("setup.prefill", -1)
	fl, err := startFleet()
	if err == nil {
		err = fl.prefill(c.events[:len(c.events)/2])
		if err != nil {
			fl.close()
		}
	}
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	return &serveSetup{
		ids: endpoints(gt), cap: c, fl: fl, wall: time.Since(t0),
		records: float64(len(gt.Records)), genWall: genWall, genAlloc: genAlloc,
	}, nil
}

// phase is what one timed phase measured.
type phase struct {
	reads   *readResult
	entries int64
	lagMean float64
	lagMax  uint64
}

// timedPhase runs the write schedule's second half through a fresh fan-out
// at commitRate, draining promotion hints into each batch the way the
// publisher does, while readersPerCPU × runtime.NumCPU() closed-loop
// readers alternate between the primary and the replica. It lasts cfg.seconds, then drains
// the fan-out and checks that the replica converged to the primary.
func timedPhase(cfg config, o *outcome, s *serveSetup, rec *recorder) (*phase, error) {
	f := s.fl
	rest := s.cap.events[len(s.cap.events)/2:]
	k := decayConfig().Sim.K
	fan, err := dirserve.NewFanout(f.cc, f.ring, f.repSrv.Addr())
	if err != nil {
		return nil, err
	}
	n := readersPerCPU * runtime.NumCPU()
	var wrec *recorder
	var rrecs []*recorder
	if rec != nil {
		wrec = newRecorder(rec.origin)
		for range n {
			rrecs = append(rrecs, newRecorder(rec.origin))
		}
	}
	pool, err := startReaders(n, []string{f.primSrv.Addr(), f.repSrv.Addr()}, s.ids, k, f.primary, rrecs)
	if err != nil {
		fan.Close()
		return nil, err
	}
	f.cc.rec = wrec
	defer func() { f.cc.rec = nil }()

	// The writer runs on this goroutine.
	before := f.primary.Stats()
	commitsBefore, failedBefore, entriesBefore := f.cc.commits, f.cc.failed, f.cc.entries
	var commitFailed int64
	var lagSum, lagN, lagMax uint64
	seen := make(map[graph.VertexID]struct{})
	for j, ev := range rest {
		due := time.Duration(j) * time.Second / commitRate
		if due >= cfg.seconds {
			break
		}
		if d := due - time.Since(pool.start); d > 0 {
			time.Sleep(d)
		}
		b := ev.b
		if !f.ring.Empty() {
			clear(seen)
			var promote []graph.VertexID
			f.ring.Drain(func(v graph.VertexID) {
				if _, dup := seen[v]; !dup {
					seen[v] = struct{}{}
					promote = append(promote, v)
				}
			})
			b.Promote = promote
		}
		sp := wrec.begin("dirserve.Fanout.CommitBatch", -1)
		f.cc.parent = sp
		e, err := fan.CommitBatch(b, ev.wave)
		wrec.end(sp)
		if err != nil {
			commitFailed++
			continue
		}
		// Apply lag: epochs the replica has yet to apply when a commit
		// returns, sampled here because a fresh fan-out's own ack stream
		// starts from zero.
		lag := e - f.replica.Applied()
		lagSum += lag
		lagN++
		lagMax = max(lagMax, lag)
	}
	if d := cfg.seconds - time.Since(pool.start); d > 0 {
		time.Sleep(d)
	}
	p := &phase{reads: pool.finish(o, k), lagMax: lagMax}
	if lagN > 0 {
		p.lagMean = float64(lagSum) / float64(lagN)
	}
	if err := fan.Close(); err != nil {
		o.failed++
		o.check(false, "draining the fan-out: %v", err)
	}
	o.attempted += f.cc.commits - commitsBefore
	// A commit the primary applied but the fan-out could not ship fails in
	// fan.CommitBatch without failing the inner committer; count it once.
	o.failed += max(commitFailed, f.cc.failed-failedBefore)
	p.entries = f.cc.entries - entriesBefore
	checkConverged(o, f)

	if rec != nil {
		rec.merge(wrec)
		for _, r := range rrecs {
			rec.merge(r)
		}
		after := f.primary.Stats()
		m := o.metrics
		m["directory.cold_entries"] = float64(after.Cold)
		m["directory.retired"] = float64(after.Retired - before.Retired)
		m["directory.rehydrated"] = float64(after.Rehydrated - before.Rehydrated)
		m["directory.promoted"] = float64(after.Promoted - before.Promoted)
		m["directory.hints_pushed"] = float64(f.ring.Pushed() + f.replicaRing.Pushed())
		m["directory.hints_dropped"] = float64(f.ring.Dropped() + f.replicaRing.Dropped())
		if lookups := f.primSrv.Lookups() + f.repSrv.Lookups(); lookups > 0 {
			m["dirserve.cold_hit_ratio"] = float64(f.primSrv.ColdHits()+f.repSrv.ColdHits()) / float64(lookups)
		}
		m["dirserve.replica_dups"] = float64(f.replica.Dups())
	}
	return p, nil
}

// checkConverged checks that the drained replica holds exactly the
// primary's view, entry by entry.
func checkConverged(o *outcome, f *fleet) {
	want, got := f.primary.Current(), f.replicaDir.Current()
	o.check(f.replica.Applied() == want.Epoch(), "replica applied %d epochs, primary is at %d", f.replica.Applied(), want.Epoch())
	o.check(got.Len() == want.Len(), "replica holds %d entries, primary %d", got.Len(), want.Len())
	n := diverged(want, got)
	o.check(n == 0, "replica disagrees with the primary on %d entries", n)
}

// diverged counts the entries of want that got maps differently or not at
// all.
func diverged(want, got *directory.Snapshot) int {
	n := 0
	want.Each(func(v graph.VertexID, shard int) bool {
		if sh, ok := got.Lookup(v); !ok || sh != shard {
			n++
		}
		return true
	})
	return n
}

// runServe drives serve-net. Each of the set-ups generates the
// trace, captures the schedule, starts a fleet and prefills it; the last
// fleet serves the untraced timed phase. The traced run then sets up one
// more fleet and repeats the phase with every commit, fan-out and lookup
// batch wrapped in a span.
func runServe(cfg config) (*outcome, error) {
	o := newOutcome()
	var rec *recorder
	if cfg.trace {
		rec = newRecorder(time.Now())
	}
	var setupWalls, rates, allocs, genWalls, genAllocs []float64
	var s *serveSetup
	for range setups {
		if s != nil {
			s.fl.close()
		}
		next, err := setupServe(cfg, o, rec)
		if err != nil {
			return nil, err
		}
		if s != nil {
			o.check(simEqual(next.cap.res, s.cap.res), "two captures of the same trace disagree on the simulator's result")
		}
		s = next
		setupWalls = append(setupWalls, s.wall.Seconds())
		rates = append(rates, s.records/s.cap.wall.Seconds())
		allocs = append(allocs, float64(s.cap.alloc)/s.records)
		genWalls = append(genWalls, s.genWall.Seconds())
		genAllocs = append(genAllocs, float64(s.genAlloc)/(1<<20))
	}
	defer func() { s.fl.close() }()
	o.check(len(s.cap.events) >= 2, "the captured schedule has %d commits", len(s.cap.events))
	m := o.metrics
	m["setup_s"] = median(setupWalls)
	m["records_per_s"] = median(rates)
	m["alloc_bytes_per_record"] = median(allocs)
	m["dynamic_cut"] = s.cap.res.OverallDynamicCut
	m["dynamic_balance"] = s.cap.res.OverallDynamicBalance
	m["moved_slots"] = float64(s.cap.res.TotalMovedSlots)
	m["workload.gen_s"] = median(genWalls)
	m["workload.alloc_mb"] = median(genAllocs)

	p, err := timedPhase(cfg, o, s, nil)
	if err != nil {
		return nil, err
	}
	recordLookups(o, p.reads)
	if !cfg.trace {
		return o, nil
	}

	fl, err := startFleet()
	if err != nil {
		return nil, err
	}
	s.fl.close()
	s.fl = fl
	sp := rec.begin("setup.prefill", -1)
	err = fl.prefill(s.cap.events[:len(s.cap.events)/2])
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	gc := readGC()
	tp, err := timedPhase(cfg, o, s, rec)
	if err != nil {
		return nil, err
	}
	recordGC(o, gc)
	if tp.reads.rate > 0 {
		m["trace.overhead_pct"] = (m["lookups_per_s"]/tp.reads.rate - 1) * 100
	}
	commits := durations(rec.spans, "directory.CommitBatch")
	m["directory.commits"] = float64(len(commits))
	m["directory.commit_s"] = secs(sum(commits))
	m["directory.commit_us_p50"] = histQuantileUs(commits, 0.50)
	m["directory.commit_us_p99"] = histQuantileUs(commits, 0.99)
	m["directory.batch_entries"] = float64(tp.entries)
	flips := durations(rec.spans, "dirserve.Fanout.CommitBatch")
	m["dirserve.flip_us_p50"] = histQuantileUs(flips, 0.50)
	m["dirserve.flip_us_p99"] = histQuantileUs(flips, 0.99)
	m["dirserve.apply_lag_mean"] = tp.lagMean
	m["dirserve.apply_lag_max"] = float64(tp.lagMax)
	m["dirserve.stale_batches"] = float64(tp.reads.stale)
	m["dirserve.evictions"] = float64(tp.reads.evictions)
	m["dirserve.behind"] = float64(tp.reads.behind)
	m["dirserve.repins"] = float64(tp.reads.repins)
	recordTail(o, tp.reads)
	o.spans = rec.spans
	return o, nil
}
