package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer: its name, its start and end in
// nanoseconds since the recorder's origin, and the index of the span that
// caused it (-1 for a root).
type span struct {
	name       string
	start, end int64
	parent     int
}

// recorder keeps spans in memory; they are written out once, at exit. A
// recorder belongs to one goroutine: concurrent callers each take their own
// (sharing one origin) and merge them afterwards.
type recorder struct {
	origin time.Time
	spans  []span
}

func newRecorder(origin time.Time) *recorder { return &recorder{origin: origin} }

// begin opens a span under parent (-1 for a root) and returns its index.
// A nil recorder records nothing, so untraced code paths call it freely.
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{name: name, start: time.Since(r.origin).Nanoseconds(), parent: parent})
	return len(r.spans) - 1
}

// end closes span i.
func (r *recorder) end(i int) {
	if r == nil {
		return
	}
	r.spans[i].end = time.Since(r.origin).Nanoseconds()
}

// merge appends o's spans, re-indexing their parents.
func (r *recorder) merge(o *recorder) {
	base := len(r.spans)
	for _, s := range o.spans {
		if s.parent >= 0 {
			s.parent += base
		}
		r.spans = append(r.spans, s)
	}
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval that its children cover. Children
// that overlap each other (concurrent callees) are counted once.
func selfTimes(spans []span) map[string]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := make(map[string]int64)
	for i, s := range spans {
		out[s.name] += (s.end - s.start) - covered(s, children[i])
	}
	return out
}

// covered returns how many nanoseconds of p's interval the union of kids
// covers.
func covered(p span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(a, b int) bool { return kids[a].start < kids[b].start })
	var total int64
	curStart, curEnd := int64(-1), int64(-1)
	for _, k := range kids {
		lo, hi := max(k.start, p.start), min(k.end, p.end)
		if hi <= lo {
			continue
		}
		if lo > curEnd {
			total += curEnd - curStart
			curStart, curEnd = lo, hi
			continue
		}
		curEnd = max(curEnd, hi)
	}
	return total + curEnd - curStart
}

// durations returns the durations, in nanoseconds, of every span named name.
func durations(spans []span, name string) []int64 {
	var out []int64
	for _, s := range spans {
		if s.name == name {
			out = append(out, s.end-s.start)
		}
	}
	return out
}

// writeSpans writes spans as CSV (name,start_ns,end_ns,parent) to path.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name,start_ns,end_ns,parent")
	for _, s := range spans {
		fmt.Fprintf(w, "%s,%d,%d,%d\n", s.name, s.start, s.end, s.parent)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
