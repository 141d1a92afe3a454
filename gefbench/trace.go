package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program itself is not instrumented). Spans of one
// request share Req; Parent is the span that caused this one (0 for a
// root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run writes them out. A nil
// *tracer records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	next  uint64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<14)} }

// open starts a span and returns its handle; close it with end.
func (t *tracer) open(name string, parent, req uint64) *openSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return &openSpan{t: t, s: span{ID: id, Parent: parent, Req: req, Name: name, Start: int64(time.Since(t.t0))}}
}

// add records a span whose interval was measured by the caller.
func (t *tracer) add(name string, parent, req uint64, start, end time.Time) uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.spans = append(t.spans, span{ID: t.next, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	return t.next
}

type openSpan struct {
	t *tracer
	s span
}

// id returns the span's ID (0 for a nil span, i.e. an untraced run).
func (o *openSpan) id() uint64 {
	if o == nil {
		return 0
	}
	return o.s.ID
}

// end closes the span, records it and returns its duration.
func (o *openSpan) end() time.Duration {
	if o == nil {
		return 0
	}
	o.s.End = int64(time.Since(o.t.t0))
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
	return o.s.dur()
}

// layerRow is one line of the per-layer table: how often a span name
// occurred, its total time, and its self time (total minus the part of
// its interval that child spans cover).
type layerRow struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
	MeanMs  float64 `json:"mean_ms"`
}

// selfTimes derives the per-layer table from the recorded spans.
func (t *tracer) selfTimes() []layerRow {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	kids := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	rows := make(map[string]*layerRow)
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{Name: s.Name}
			rows[s.Name] = r
		}
		d := s.dur()
		r.Count++
		r.TotalMs += ms(d)
		r.SelfMs += ms(d - covered(s, kids[s.ID]))
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		r.MeanMs = r.TotalMs / float64(r.Count)
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered returns how much of s's interval the children cover, counting
// overlapping children once.
func covered(s span, children []span) time.Duration {
	if len(children) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, s.Start), min(c.End, s.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] <= curHi:
			curHi = max(curHi, v[1])
		default:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return time.Duration(total)
}

// writeTrace stores the spans and the per-layer table as one JSON file.
func (t *tracer) writeTrace(path string, table []layerRow) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(struct {
		Layers []layerRow `json:"layers"`
		Spans  []span     `json:"spans"`
	}{table, t.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// printTable writes the per-layer table in aligned text form.
func printTable(w io.Writer, table []layerRow) {
	fmt.Fprintf(w, "%-28s %7s %12s %12s %10s\n", "span", "count", "total_ms", "self_ms", "mean_ms")
	for _, r := range table {
		fmt.Fprintf(w, "%-28s %7d %12.3f %12.3f %10.3f\n", r.Name, r.Count, r.TotalMs, r.SelfMs, r.MeanMs)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
