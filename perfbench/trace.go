package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Times are
// nanoseconds since the tracer started; Parent indexes the span that
// caused this one (-1 for a root); spans of one request share Req.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is an
// untraced run: every method is a no-op.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a span and returns its index (-1 when untraced).
func (t *tracer) add(name string, start, end time.Time, parent int, req int64) int {
	if t == nil {
		return -1
	}
	s := span{Name: name, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), Parent: parent, Req: req}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	i := len(t.spans) - 1
	t.mu.Unlock()
	return i
}

// adopt appends spans another process recorded with a tracer started at
// t0 (Unix ns), moving them onto this tracer's clock and indices.
func (t *tracer) adopt(spans []span, t0 int64) {
	if t == nil {
		return
	}
	shift := t0 - t.t0.UnixNano()
	t.mu.Lock()
	defer t.mu.Unlock()
	base := len(t.spans)
	for _, s := range spans {
		s.Start += shift
		s.End += shift
		if s.Parent >= 0 {
			s.Parent += base
		}
		t.spans = append(t.spans, s)
	}
}

// write stores the spans as JSON lines in dir/name.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// summary returns one line per span name: count, median duration and
// median self time (duration minus the part its children cover).
func (t *tracer) summary() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	dur := make(map[string][]float64)
	self := make(map[string][]float64)
	for i, s := range t.spans {
		d := float64(s.End - s.Start)
		dur[s.Name] = append(dur[s.Name], d)
		self[s.Name] = append(self[s.Name], d-covered(s, t.spans, children[i]))
	}
	names := make([]string, 0, len(dur))
	for n := range dur {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]string, 0, len(names))
	for _, n := range names {
		out = append(out, fmt.Sprintf("span %-16s n=%-7d dur_p50=%10.1fus self_p50=%10.1fus",
			n, len(dur[n]), median(dur[n])/1e3, median(self[n])/1e3))
	}
	return out
}

// covered is the length of the union of the child intervals, clipped
// to the parent's interval.
func covered(parent span, all []span, kids []int) float64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(all[k].Start, parent.Start), min(all[k].End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	end = -1 << 62
	for _, x := range iv {
		if x[0] > end {
			total += x[1] - x[0]
			end = x[1]
		} else if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return float64(total)
}
