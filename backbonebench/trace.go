package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer of the program. Spans of one
// operation share Op; Parent indexes the enclosing span, -1 for the
// operation's root. A layer span is named after the per-layer metric it
// feeds, so a layer's number is the self time of the spans bearing its
// name.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so traced and untraced operations run the same code.
type tracer struct {
	t0    time.Time
	spans []span
	root  int // the open operation's root span, -1 between operations
	ops   int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), root: -1} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// beginOp opens the root span of one operation.
func (t *tracer) beginOp(name string) {
	if t == nil {
		return
	}
	t.root = len(t.spans)
	t.spans = append(t.spans, span{Name: name, Op: t.ops, Parent: -1, Start: t.now()})
}

func (t *tracer) endOp() {
	if t == nil {
		return
	}
	t.spans[t.root].End = t.now()
	t.root = -1
	t.ops++
}

// begin opens a layer span under the open operation and returns its
// handle for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Op: t.ops, Parent: t.root, Start: t.now()})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].End = t.now()
}

// add appends a span whose times were taken elsewhere (the open-loop
// client's timestamps) and returns its index.
func (t *tracer) add(s span) int {
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// opLayers is one traced operation: its root name and duration, and
// the self time of each layer under it, in milliseconds.
type opLayers struct {
	name   string
	total  float64
	self   float64 // the root's own time outside every layer span
	layers map[string]float64
}

// operations folds the spans into per-operation layer self times.
func (t *tracer) operations() []opLayers {
	child := make([]int64, len(t.spans)) // summed child durations per span
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	var out []opLayers
	byOp := map[int]int{} // op id -> index in out
	for i, s := range t.spans {
		self := float64(s.End-s.Start-child[i]) / 1e6
		if s.Parent < 0 {
			byOp[s.Op] = len(out)
			out = append(out, opLayers{name: s.Name, total: float64(s.End-s.Start) / 1e6, self: self, layers: map[string]float64{}})
			continue
		}
		out[byOp[s.Op]].layers[s.Name] += self
	}
	return out
}

// layerMedians returns, per layer name, the median over ops of that
// layer's per-op self time, for ops whose root name passes keep.
func layerMedians(ops []opLayers, keep func(name string) bool) map[string]float64 {
	per := map[string][]float64{}
	for _, o := range ops {
		if !keep(o.name) {
			continue
		}
		//lint:detiter-ok appends into per-name slices; the medians do not depend on order
		for name, v := range o.layers {
			per[name] = append(per[name], v)
		}
	}
	out := make(map[string]float64, len(per))
	//lint:detiter-ok builds another map
	for name, vs := range per {
		out[name] = median(vs)
	}
	return out
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
