package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// tracer records spans in memory around the benchmark's own calls into
// each layer. Nothing inside the program is instrumented: a span covers
// one call from the benchmark into a module's public API. A disabled
// tracer (the untraced run) records nothing and costs one branch.
type tracer struct {
	on bool
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

// span is one timed call. Spans of one request share Req (its
// X-Request-ID); Parent is the index of the enclosing span, or -1.
type span struct {
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its handle (-1 when tracing is off).
func (t *tracer) begin(name, req string, parent int) int {
	if !t.on {
		return -1
	}
	now := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: now, End: -1})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

// end closes the span opened by begin.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// record adds an already-timed span (start and end as tracer offsets).
func (t *tracer) record(name, req string, parent int, start, end int64) int {
	if !t.on {
		return -1
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: start, End: end})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

// spanTotal aggregates every span of one name.
type spanTotal struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// summarize returns per-name totals. A span's self time is its duration
// minus the part of its interval that its children cover (children of
// one span may overlap each other, so their union is subtracted).
func (t *tracer) summarize() []spanTotal {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	byName := map[string]*spanTotal{}
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		dur := s.End - s.Start
		self := dur - covered(children[i], s.Start, s.End)
		tot := byName[s.Name]
		if tot == nil {
			tot = &spanTotal{Name: s.Name}
			byName[s.Name] = tot
		}
		tot.Count++
		tot.TotalS += float64(dur) / 1e9
		tot.SelfS += float64(self) / 1e9
	}
	out := make([]spanTotal, 0, len(byName))
	for _, v := range byName {
		out = append(out, *v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TotalS > out[j].TotalS })
	return out
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := [2]int64{-1, -1}
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b <= a {
			continue
		}
		if a > cur[1] {
			total += cur[1] - cur[0]
			cur = [2]int64{a, b}
		} else if b > cur[1] {
			cur[1] = b
		}
	}
	return total + cur[1] - cur[0]
}

// write stores the spans and their per-name totals as one JSON document
// under dir, returning the file's path.
func (t *tracer) write(dir, name string, extra map[string]any) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("creating span directory: %w", err)
	}
	totals := t.summarize()
	t.mu.Lock()
	doc := map[string]any{"totals": totals, "spans": t.spans}
	for k, v := range extra {
		doc[k] = v
	}
	data, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("writing spans: %w", err)
	}
	return path, nil
}
