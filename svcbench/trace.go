package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around the layer's public function. Spans of one replayed operation
// share Op; Parent is the enclosing span, -1 for the operation's root.
type span struct {
	Op     int    `json:"op"`
	Kind   string `json:"kind"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory. A disabled tracer only runs the
// wrapped calls, which is how the untraced replay pass measures the
// same work for the tracing-overhead figure.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	stack []int
	op    int
	kind  string
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// run replays one operation of the given kind under a root span named
// after the kind, and returns its wall time.
func (t *tracer) run(kind string, f func()) time.Duration {
	t.op++
	t.kind = kind
	start := time.Now()
	t.span("op."+kind, f)
	return time.Since(start)
}

// span times f as a child of the innermost open span.
func (t *tracer) span(name string, f func()) {
	if !t.on {
		f()
		return
	}
	id := len(t.spans)
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Op: t.op, Kind: t.kind, ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.t0))})
	t.stack = append(t.stack, id)
	f()
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[id].End = int64(time.Since(t.t0))
}

// selfTimes returns each span's duration minus the part of its
// interval that its child spans cover.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered := int64(0)
		curS, curE := int64(-1), int64(-1)
		for _, k := range kids {
			ks, ke := max(k.Start, s.Start), min(k.End, s.End)
			if ke <= ks {
				continue
			}
			if ks > curE {
				covered += curE - curS
				curS, curE = ks, ke
			} else if ke > curE {
				curE = ke
			}
		}
		covered += curE - curS
		self[i] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// perOp sums, for every operation of a kind, the time of the spans
// with a name (self time, or whole span), and returns one value per
// operation in microseconds. Operations without such a span are
// skipped.
func (t *tracer) perOp(kind, name string, self bool) []float64 {
	st := selfTimes(t.spans)
	sums := make(map[int]time.Duration)
	var order []int
	for i, s := range t.spans {
		if s.Kind != kind || s.Name != name {
			continue
		}
		if _, seen := sums[s.Op]; !seen {
			order = append(order, s.Op)
		}
		d := time.Duration(s.End - s.Start)
		if self {
			d = st[i]
		}
		sums[s.Op] += d
	}
	out := make([]float64, 0, len(order))
	for _, op := range order {
		out = append(out, float64(sums[op])/float64(time.Microsecond))
	}
	return out
}

// perSpan returns every span of a name in a kind, in microseconds.
func (t *tracer) perSpan(kind, name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Kind == kind && s.Name == name {
			out = append(out, float64(s.End-s.Start)/float64(time.Microsecond))
		}
	}
	return out
}

// write saves every span, one JSON object a line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(&s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readSpans loads spans written by write.
func readSpans(path string) ([]span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []span
	dec := json.NewDecoder(f)
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// merge appends spans recorded by another tracer (a child process's)
// as new operations of this one.
func (t *tracer) merge(spans []span) {
	idBase, opBase := len(t.spans), t.op
	for _, s := range spans {
		s.ID += idBase
		if s.Parent >= 0 {
			s.Parent += idBase
		}
		s.Op += opBase
		if s.Op > t.op {
			t.op = s.Op
		}
		t.spans = append(t.spans, s)
	}
}
