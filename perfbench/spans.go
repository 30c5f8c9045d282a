package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one op share Op; Parent is
// the index (within the op) of the span that caused it, -1 for the op root.
type span struct {
	Op     string `json:"op"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start"` // unix ns
	Dur    int64  `json:"dur"`   // ns
	Pid    int    `json:"pid"`
	Tid    int    `json:"tid"`
}

// opSpans records the spans of one op. A nil *opSpans records nothing, so
// untraced code paths call it unconditionally at no cost.
type opSpans struct {
	op    string
	spans []span
}

func newOpSpans(op string) *opSpans { return &opSpans{op: op} }

// begin opens a span under parent and returns its id.
func (o *opSpans) begin(name, layer string, parent int) int {
	if o == nil {
		return -1
	}
	o.spans = append(o.spans, span{Op: o.op, Name: name, Layer: layer, ID: len(o.spans), Parent: parent,
		Start: time.Now().UnixNano(), Pid: os.Getpid(), Tid: 1})
	return len(o.spans) - 1
}

// end closes span id.
func (o *opSpans) end(id int) {
	if o == nil || id < 0 {
		return
	}
	o.spans[id].Dur = time.Now().UnixNano() - o.spans[id].Start
}

// add records a span with known bounds.
func (o *opSpans) add(name, layer string, parent int, start time.Time, d time.Duration) int {
	if o == nil {
		return -1
	}
	o.spans = append(o.spans, span{Op: o.op, Name: name, Layer: layer, ID: len(o.spans), Parent: parent,
		Start: start.UnixNano(), Dur: int64(d), Pid: os.Getpid(), Tid: 1})
	return len(o.spans) - 1
}

// spanLog holds every span of a traced run in memory until it is written.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) addOp(spans []span) {
	l.mu.Lock()
	l.spans = append(l.spans, spans...)
	l.mu.Unlock()
}

// selfTimes returns each layer's self time in ms: a span's duration minus
// the part of it its children cover, summed per layer.
func (l *spanLog) selfTimes() map[string]float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	type key struct {
		op string
		id int
	}
	children := map[key][]span{}
	for _, s := range l.spans {
		if s.Parent >= 0 {
			k := key{s.Op, s.Parent}
			children[k] = append(children[k], s)
		}
	}
	out := map[string]float64{}
	for _, layer := range layers {
		out[layer] = 0
	}
	for _, s := range l.spans {
		covered := coveredNs(s, children[key{s.Op, s.ID}])
		out[s.Layer] += float64(s.Dur-covered) / 1e6
	}
	return out
}

// coveredNs is the length of the union of the children's intervals clipped
// to the parent's.
func coveredNs(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	lo, hi := parent.Start, parent.Start+parent.Dur
	for _, k := range kids {
		a, b := max(k.Start, lo), min(k.Start+k.Dur, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	for i, v := range ivs {
		if i == 0 || v.a > curB {
			total += curB - curA
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	return total + curB - curA
}

// traceEvent is one record of the Chrome trace-event JSON format that
// Perfetto and chrome://tracing open.
type traceEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`  // µs since the first span
	Dur  float64           `json:"dur"` // µs
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// write stores the spans as trace-event JSON at path, with env as metadata.
func (l *spanLog) write(path string, env map[string]string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	var t0 int64
	for i, s := range l.spans {
		if i == 0 || s.Start < t0 {
			t0 = s.Start
		}
	}
	evs := make([]traceEvent, 0, len(l.spans))
	for _, s := range l.spans {
		evs = append(evs, traceEvent{Name: s.Name, Cat: s.Layer, Ph: "X",
			Ts: float64(s.Start-t0) / 1e3, Dur: float64(s.Dur) / 1e3, Pid: s.Pid, Tid: s.Tid,
			Args: map[string]string{"op": s.Op}})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms", "metadata": env})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
