// Package directory implements the serving layer's account→shard placement
// directory: an epoch-versioned, concurrent map from vertex IDs to shards
// that answers "which shard owns account X?" at high read rates while a
// repartitioner mutates the mapping underneath.
//
// The design is RCU-shaped. All state reachable from a published *Snapshot
// is immutable; readers load the current snapshot with one atomic pointer
// read and then perform any number of lookups against a frozen, consistent
// view — no locks, no retries, no torn reads. Writers serialise on a mutex,
// build the next snapshot by copying only what they touch, and publish it
// with one atomic store. A repartition's whole move set commits as a single
// epoch flip: no reader can ever observe half a wave.
//
// Storage is one paged table, mirroring the dense/spill split of the
// partition and graph packages: every dense ID (below hotIDLimit) owns one
// int32 slot in fixed-size copy-on-write pages, and the slot carries both
// the shard and the entry's tier — hot (live accounts that placement and
// repartitioning touch) or cold (sticky assignments of retired accounts)
// — as one tier bit. Retiring, promoting and re-hydrating an entry flip
// that bit in place, so a commit copies only the pages its batch touches,
// whatever the size of the retired population. IDs at or above hotIDLimit
// live in a small copy-on-write spill map and are always cold.
//
// A bounded journal retains the last JournalDepth snapshots by epoch, so a
// reader that pinned epoch E mid-flight can re-acquire exactly that view
// (AtEpoch) for as long as the journal keeps it.
package directory

import (
	"errors"
	"fmt"
	"maps"
	"sync"
	"sync/atomic"

	"ethpart/internal/graph"
)

// NoShard is returned (with ok == false) for vertices the directory has
// never seen.
const NoShard = -1

// noShard is the unoccupied-slot sentinel inside pages.
const noShard int32 = -1

// coldBit is the tier bit of a slot: set for cold-tier entries. An
// occupied slot is the shard with coldBit or'ed in, so hot slots lie in
// [0, coldBit), cold slots in [coldBit, 1<<31), and noShard below both.
const coldBit int32 = 1 << 30

// MaxShard is the largest shard a slot can hold next to its tier bit.
// Commit rejects any target or shard count above it.
const MaxShard = int(coldBit - 1)

const (
	// pageBits sizes the table's copy-on-write pages: 1<<pageBits
	// entries (4 KiB of int32s). Small enough that a single placement's
	// page copy is cheap, large enough that the page-pointer table stays
	// tiny (one pointer per 1024 accounts).
	pageBits = 10
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
)

// hotIDLimit bounds the paged table, matching the dense ID region of the
// graph and partition packages (IDs come from the trace registry, which
// assigns them densely from zero). Callers minting VertexIDs from address
// bits land in the spill map instead of forcing giant page tables.
const hotIDLimit = graph.VertexID(1) << 22

// page is one fixed-size block of the table. Pages reachable from a
// published snapshot are immutable; a writer copies a page before its
// first write of a commit.
type page [pageSize]int32

// Snapshot is one immutable, internally consistent version of the
// directory. Any number of goroutines may share a Snapshot; it never
// changes after publication, so a reader holding one sees a single epoch's
// view across arbitrarily many lookups.
type Snapshot struct {
	epoch uint64
	// shards is the shard count this view was published under; zero until
	// a batch carries one. Riding inside the snapshot makes the count
	// epoch-consistent with the placements: a reader resolving homes
	// against a pinned view can never pair an old k with a new mapping (or
	// vice versa), however many resizes the writer commits meanwhile.
	shards int
	// pages is the table of dense-ID slots, both tiers; nil entries are
	// pages no commit has written yet.
	pages []*page
	// spill holds the slots (always cold) of IDs at or above hotIDLimit.
	// Nil until such an ID is first mapped.
	spill map[graph.VertexID]int32
	// hot and entries count hot-tier slots and total mapped vertices
	// (hot + cold).
	hot, entries int
}

// Epoch returns the snapshot's version number. Epochs start at zero (the
// empty directory) and increase by one per commit.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// Shards returns the shard count this view was published under — the
// epoch-consistent companion of the placements, guaranteed to cover every
// mapped shard of the view. Zero means no batch has declared one yet.
func (s *Snapshot) Shards() int { return s.shards }

// Len returns the number of mapped vertices in this view.
func (s *Snapshot) Len() int { return s.entries }

// HotLen returns the number of hot-tier entries in this view.
func (s *Snapshot) HotLen() int { return s.hot }

// ColdLen returns the number of cold-tier (retired/spilled) entries.
func (s *Snapshot) ColdLen() int { return s.entries - s.hot }

// slot returns v's slot in this view: noShard when unmapped, otherwise the
// shard with coldBit set for cold-tier entries. A dense ID is a bounds
// check and two loads.
func (s *Snapshot) slot(v graph.VertexID) int32 {
	if v < hotIDLimit {
		if p := int(v >> pageBits); p < len(s.pages) {
			if pg := s.pages[p]; pg != nil {
				return pg[v&pageMask]
			}
		}
		return noShard
	}
	return s.spilled(v)
}

// spilled is slot's path for IDs at or above hotIDLimit, kept out of line
// so slot stays small enough to inline into LookupTier.
func (s *Snapshot) spilled(v graph.VertexID) int32 {
	if sl, ok := s.spill[v]; ok {
		return sl
	}
	return noShard
}

// Lookup returns the shard of v in this view.
func (s *Snapshot) Lookup(v graph.VertexID) (int, bool) {
	shard, _, ok := s.LookupTier(v)
	return shard, ok
}

// LookupTier is Lookup plus tier information: cold reports whether the
// answer came from the cold tier. The serving front end uses it to emit
// promotion hints for hot-again accounts without taking any lock.
func (s *Snapshot) LookupTier(v graph.VertexID) (shard int, cold, ok bool) {
	sl := s.slot(v)
	if sl < 0 {
		return NoShard, false, false
	}
	return int(sl &^ coldBit), sl >= coldBit, true
}

// Each calls fn for every mapped vertex of the view: dense IDs in
// ascending order across both tiers, then spilled IDs (at or above
// hotIDLimit) in unspecified order. Stops early when fn returns false.
func (s *Snapshot) Each(fn func(v graph.VertexID, shard int) bool) {
	for p, pg := range s.pages {
		if pg == nil {
			continue
		}
		base := graph.VertexID(p) << pageBits
		for i, sl := range pg {
			if sl >= 0 && !fn(base+graph.VertexID(i), int(sl&^coldBit)) {
				return
			}
		}
	}
	for v, sl := range s.spill {
		if !fn(v, int(sl&^coldBit)) {
			return
		}
	}
}

// Move is one mapping update: vertex V is owned by shard To.
type Move struct {
	V  graph.VertexID
	To int
}

// Batch is the unit of atomicity: everything in one Batch becomes visible
// together, as a single epoch flip.
//
// Set entries write the vertex's slot with the tier bit clear: a new
// vertex joins the hot tier, an existing hot entry is overwritten in
// place, and a cold (retired) entry is re-hydrated into the hot tier — a
// repartition moving a sticky assignment re-hydrates it. SetCold entries
// write the slot and keep its tier bit: hot stays hot, cold stays cold,
// unknown vertices join the cold tier — the shape of a merge wave
// remapping retired sticky assignments off a decommissioned shard, which
// must not re-hydrate dead history into the hot tier. Retire entries set
// the tier bit of a hot entry (no-ops for vertices already cold or never
// seen). Promote entries clear the tier bit of a cold entry, keeping its
// shard — the promotion-on-access lane fed by the read-side hint ring; a
// promotion never changes a lookup's answer and is a no-op for hot,
// unknown, or out-of-range vertices, so duplicated or stale hints are
// harmless. Out-of-range vertices (at or above hotIDLimit) are cold
// whichever lane writes them.
//
// Shards, when positive, declares the shard count the batch's mappings are
// expressed against; it becomes the snapshot's epoch-consistent Shards().
// Zero inherits the current count. A batch both resizing and remapping is
// exactly one epoch flip — the directory's no-k/placement-tear guarantee —
// and Commit rejects any batch that would publish a view with a mapping at
// or above its own shard count.
type Batch struct {
	Set     []Move
	SetCold []Move
	Retire  []graph.VertexID
	Promote []graph.VertexID
	Shards  int
}

// Config parameterises a Directory.
type Config struct {
	// JournalDepth is how many recent snapshots stay reachable by epoch
	// through AtEpoch. Zero means the default of 16. The journal bounds
	// how long an in-flight reader can lag the writer and still re-pin
	// its epoch; snapshots older than the journal are garbage once the
	// last reader drops them.
	JournalDepth int
}

// Directory is the concurrent placement directory. Lookups (through
// Current/AtEpoch snapshots) are lock-free and safe from any number of
// goroutines; Commit/Place serialise internally, so multiple writers are
// safe too (though the intended shape is one publisher).
type Directory struct {
	mu   sync.Mutex
	view atomic.Pointer[Snapshot]

	journalDepth int
	journal      []*Snapshot // ring, len == journalDepth
	jhead        int

	// Cumulative writer-side counters (guarded by mu).
	flips, waveFlips, retired, rehydrated, promoted uint64
}

// New returns an empty directory at epoch zero.
func New(cfg Config) *Directory {
	if cfg.JournalDepth <= 0 {
		cfg.JournalDepth = 16
	}
	d := &Directory{
		journalDepth: cfg.JournalDepth,
		journal:      make([]*Snapshot, cfg.JournalDepth),
	}
	root := &Snapshot{}
	d.view.Store(root)
	d.journal[0] = root
	return d
}

// Current returns the latest published snapshot. The returned view is
// immutable; hold it for as many lookups as need to be mutually
// consistent, then drop it.
func (d *Directory) Current() *Snapshot { return d.view.Load() }

// Epoch returns the latest published epoch.
func (d *Directory) Epoch() uint64 { return d.view.Load().epoch }

// AtEpoch returns the journaled snapshot for epoch e, if the bounded
// journal still retains it.
func (d *Directory) AtEpoch(e uint64) (*Snapshot, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, s := range d.journal {
		if s != nil && s.epoch == e {
			return s, true
		}
	}
	return nil, false
}

// ErrEpochEvicted reports that a requested epoch has aged out of the
// bounded journal (or was never published). Errors returned by PinEpoch
// match it with errors.Is.
var ErrEpochEvicted = errors.New("directory: epoch evicted from journal")

// PinEpoch returns the journaled snapshot for epoch e, or an error wrapping
// ErrEpochEvicted that names the epoch and the range the journal still
// retains — the typed form of the AtEpoch miss.
func (d *Directory) PinEpoch(e uint64) (*Snapshot, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	oldest, newest := uint64(0), uint64(0)
	first := true
	for _, s := range d.journal {
		if s == nil {
			continue
		}
		if s.epoch == e {
			return s, nil
		}
		if first || s.epoch < oldest {
			oldest = s.epoch
		}
		if s.epoch > newest {
			newest = s.epoch
		}
		first = false
	}
	return nil, fmt.Errorf("%w: epoch %d (journal retains %d..%d)",
		ErrEpochEvicted, e, oldest, newest)
}

// Resolve returns the best available view for a reader that pinned epoch e:
// the exact journaled snapshot when the journal retains it, otherwise the
// newest published view with stale == true. It replaces the hand-rolled
// "AtEpoch, else Current" dance: an evicted (or not-yet-published) epoch
// degrades to a bounded-staleness read instead of an error, and the flag
// tells the caller to re-pin against the view it actually got.
func (d *Directory) Resolve(e uint64) (s *Snapshot, stale bool) {
	if s, ok := d.AtEpoch(e); ok {
		return s, false
	}
	return d.Current(), true
}

// Committer is the surface a Publisher commits through: the Directory
// itself, or a wrapper that injects faults or replication between the
// publisher and the directory. wave marks a repartition's epoch flip (the
// whole move set of one repartition as a single batch), so wrappers can
// treat flips differently from per-record placement flushes; the Directory
// counts it (Stats.WaveFlips) but applies both kinds identically.
type Committer interface {
	CommitBatch(b Batch, wave bool) (uint64, error)
}

// CommitBatch implements Committer. Wave commits are tallied separately in
// Stats.WaveFlips, so reports can split repartition flips from loose
// placement flushes.
func (d *Directory) CommitBatch(b Batch, wave bool) (uint64, error) {
	return d.commit(b, wave)
}

// Place maps a single vertex, as its own epoch flip. It is Commit of a
// one-entry batch; bulk callers should batch.
func (d *Directory) Place(v graph.VertexID, shard int) (uint64, error) {
	return d.Commit(Batch{Set: []Move{{V: v, To: shard}}})
}

// Commit atomically publishes one batch and returns the new epoch. An
// empty batch still flips the epoch (callers that want "no change, no
// flip" should skip the call — the Publisher does).
func (d *Directory) Commit(b Batch) (uint64, error) {
	return d.commit(b, false)
}

func (d *Directory) commit(b Batch, wave bool) (uint64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()

	// Validate the whole batch before touching any writer state, so a
	// rejected batch leaves no trace: no epoch, no counter, no slot.
	cur := d.view.Load()
	if b.Shards < 0 || b.Shards > MaxShard {
		return 0, fmt.Errorf("directory: shard count %d out of range [0,%d]", b.Shards, MaxShard)
	}
	shards := cur.shards
	if b.Shards > 0 {
		shards = b.Shards
	}
	if err := checkTargets("set", b.Set, shards); err != nil {
		return 0, err
	}
	if err := checkTargets("set-cold", b.SetCold, shards); err != nil {
		return 0, err
	}
	if b.Shards > 0 && cur.shards > 0 && b.Shards < cur.shards {
		// Shrinking: every existing mapping at or above the new count must
		// be remapped below it by this very batch, or the flip would
		// publish a k/placement tear. The scan runs against the current
		// (immutable) view before anything mutates, so a rejection leaves
		// the writer state untouched. Resizes are rare; O(entries) here
		// buys an invariant every reader can rely on.
		remap := make(map[graph.VertexID]int, len(b.Set)+len(b.SetCold))
		for _, m := range b.Set {
			remap[m.V] = m.To
		}
		for _, m := range b.SetCold {
			remap[m.V] = m.To
		}
		var tearErr error
		cur.Each(func(v graph.VertexID, shard int) bool {
			if shard < b.Shards {
				return true
			}
			if to, ok := remap[v]; !ok || to >= b.Shards {
				tearErr = fmt.Errorf("directory: shrink to %d shards would orphan %d on shard %d",
					b.Shards, v, shard)
				return false
			}
			return true
		})
		if tearErr != nil {
			return 0, tearErr
		}
	}

	next := &Snapshot{
		epoch:   cur.epoch + 1,
		shards:  shards,
		pages:   cur.pages,
		spill:   cur.spill,
		hot:     cur.hot,
		entries: cur.entries,
	}
	// Copy-on-write bookkeeping for this commit: which pages (and whether
	// the page table and spill map) are already private to next.
	var pagesOwned, spillOwned bool
	owned := make(map[int]bool)

	ownPage := func(p int) *page {
		if !pagesOwned || p >= len(next.pages) {
			grown := make([]*page, max(p+1, len(next.pages)))
			copy(grown, next.pages)
			next.pages = grown
			pagesOwned = true
		}
		if !owned[p] {
			np := new(page)
			if old := next.pages[p]; old != nil {
				*np = *old
			} else {
				for i := range np {
					np[i] = noShard
				}
			}
			next.pages[p] = np
			owned[p] = true
		}
		return next.pages[p]
	}
	// put writes v's slot in next, keeps the counts in step, and returns
	// the slot it replaced. Spilled IDs are forced cold.
	put := func(v graph.VertexID, sl int32) int32 {
		old := next.slot(v)
		if v < hotIDLimit {
			ownPage(int(v >> pageBits))[v&pageMask] = sl
		} else {
			if !spillOwned {
				spill := make(map[graph.VertexID]int32, len(next.spill)+1)
				maps.Copy(spill, next.spill)
				next.spill = spill
				spillOwned = true
			}
			sl |= coldBit
			next.spill[v] = sl
		}
		switch {
		case old < 0:
			next.entries++
		case old < coldBit:
			next.hot--
		}
		if sl < coldBit {
			next.hot++
		}
		return old
	}

	for _, m := range b.Set {
		if old := put(m.V, int32(m.To)); old >= coldBit && m.V < hotIDLimit {
			d.rehydrated++
		}
	}
	for _, m := range b.SetCold {
		tier := coldBit // unknown vertices join the cold tier
		if old := next.slot(m.V); old >= 0 {
			tier = old & coldBit
		}
		put(m.V, int32(m.To)|tier)
	}
	for _, v := range b.Promote {
		// Promotion-on-access: only the tier moves, never the shard, so
		// replicas applying the same stream converge on the same mapping
		// regardless of hint timing.
		if old := next.slot(v); old >= coldBit && v < hotIDLimit {
			put(v, old&^coldBit)
			d.promoted++
		}
	}
	for _, v := range b.Retire {
		// Spilled IDs read cold, so only dense hot entries retire.
		if old := next.slot(v); old >= 0 && old < coldBit {
			put(v, old|coldBit)
			d.retired++
		}
	}

	d.flips++
	if wave {
		d.waveFlips++
	}
	d.jhead = (d.jhead + 1) % d.journalDepth
	d.journal[d.jhead] = next
	d.view.Store(next)
	return next.epoch, nil
}

// checkTargets rejects any move of a lane whose target shard is negative,
// does not fit a slot, or lies outside the batch's effective shard count.
func checkTargets(lane string, moves []Move, shards int) error {
	for _, m := range moves {
		if m.To < 0 || m.To > MaxShard {
			return fmt.Errorf("directory: %s %d: shard %d out of range [0,%d]", lane, m.V, m.To, MaxShard)
		}
		if shards > 0 && m.To >= shards {
			return fmt.Errorf("directory: %s %d: shard %d out of range [0,%d)", lane, m.V, m.To, shards)
		}
	}
	return nil
}

// Stats is a point-in-time summary of the directory for reporting.
type Stats struct {
	Epoch     uint64
	Shards    int
	Entries   int
	Hot, Cold int
	// Pages counts the allocated pages of the current view's table, both
	// tiers. Retirement keeps an entry in its page, so Pages never
	// decreases.
	Pages int
	Flips uint64
	// WaveFlips counts the commits marked as repartition waves through the
	// Committer seam; Flips - WaveFlips are loose placement flushes.
	WaveFlips  uint64
	Retired    uint64
	Rehydrated uint64
	// Promoted counts cold entries re-hydrated through the Promote lane
	// (promotion-on-access); Rehydrated counts re-hydrations caused by Set.
	Promoted uint64
}

// Stats returns current counters.
func (d *Directory) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := d.view.Load()
	pages := 0
	for _, pg := range s.pages {
		if pg != nil {
			pages++
		}
	}
	return Stats{
		Epoch: s.epoch, Shards: s.shards, Entries: s.entries, Hot: s.hot,
		Cold: s.entries - s.hot, Pages: pages, Flips: d.flips,
		WaveFlips: d.waveFlips, Retired: d.retired, Rehydrated: d.rehydrated,
		Promoted: d.promoted,
	}
}
