package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer. The benchmark records spans around
// the program's public entry points; a span's parent is the span that was
// open when it began (0 for a root span).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory for one traced run. Spans nest strictly:
// end closes the innermost open span. It is used from one goroutine.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int // indices into spans, innermost last
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// begin opens a span under the innermost open span and returns its id.
func (t *tracer) begin(name string) int {
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: t.now()})
	t.open = append(t.open, id-1)
	return id
}

// end closes span id, which must be the innermost open span, and returns
// its duration.
func (t *tracer) end(id int) time.Duration {
	n := len(t.open)
	if n == 0 || t.spans[t.open[n-1]].ID != id {
		panic(fmt.Sprintf("perfbench: span %d closed out of order", id))
	}
	s := &t.spans[id-1]
	s.End = t.now()
	t.open = t.open[:n-1]
	return time.Duration(s.End - s.Start)
}

// do runs f inside a span named name and returns the span's duration.
func (t *tracer) do(name string, f func() error) (time.Duration, error) {
	id := t.begin(name)
	err := f()
	return t.end(id), err
}

// durations returns the durations of every closed span named name, in the
// order they were recorded.
func (t *tracer) durations(name string) []time.Duration {
	var ds []time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.End >= s.Start {
			ds = append(ds, time.Duration(s.End-s.Start))
		}
	}
	return ds
}

// layerOf names the layer a span belongs to: the text before the first
// dot ("routing.cdg" belongs to "routing").
func layerOf(name string) string {
	l, _, _ := strings.Cut(name, ".")
	return l
}

// selfTimes sums, per layer, each span's duration minus the part of its
// interval its child spans cover. Only spans inside root (root included)
// count; root 0 means every span.
func selfTimes(spans []span, root int) map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	inside := map[int]bool{}
	var mark func(id int)
	mark = func(id int) {
		inside[id] = true
		for _, c := range children[id] {
			mark(c.ID)
		}
	}
	if root != 0 {
		mark(root)
	}
	self := map[string]time.Duration{}
	for _, s := range spans {
		if root != 0 && !inside[s.ID] {
			continue
		}
		d := time.Duration(s.End-s.Start) - covered(children[s.ID])
		self[layerOf(s.Name)] += d
	}
	return self
}

// covered returns the length of the union of the spans' intervals.
func covered(cs []span) time.Duration {
	if len(cs) == 0 {
		return 0
	}
	iv := append([]span(nil), cs...)
	sort.Slice(iv, func(i, j int) bool { return iv[i].Start < iv[j].Start })
	var total int64
	lo, hi := iv[0].Start, iv[0].End
	for _, s := range iv[1:] {
		if s.Start > hi {
			total += hi - lo
			lo, hi = s.Start, s.End
		} else if s.End > hi {
			hi = s.End
		}
	}
	total += hi - lo
	return time.Duration(total)
}

// write stores the spans as one JSON document.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
