package main

import (
	"sort"
	"sync"
	"time"
)

// span is one traced interval: which layer call it covers, when it
// started and ended (nanoseconds since the tracer was created), the
// span that caused it and the op both belong to. Spans are recorded by
// bench code around calls into the layers' exported functions; nothing
// inside the engine takes a timestamp.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for an op's root span
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. Spans open and close
// as a stack. The served workload's handler and store wrappers open
// theirs on server goroutines, hence the mutex; with one client in a
// closed loop the generator is blocked in the client call meanwhile, so
// the stack discipline still holds.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	on    bool // spans are recorded only while on
	spans []span
	stack []int
	op    int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), op: -1} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// beginOp starts a new op and opens its root span.
func (t *tracer) beginOp(name string) int {
	t.mu.Lock()
	t.op++
	t.stack = t.stack[:0]
	t.mu.Unlock()
	return t.begin(name)
}

// endOp closes the op's root span and anything still open under it.
func (t *tracer) endOp() {
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, id := range t.stack {
		t.spans[id].End = end
	}
	t.stack = t.stack[:0]
}

// enable switches recording on or off; an untraced phase of a traced
// run leaves the wrappers in place but records nothing.
func (t *tracer) enable(on bool) {
	t.mu.Lock()
	t.on = on
	t.stack = t.stack[:0]
	t.mu.Unlock()
}

// begin opens a span under the innermost open span; -1 while off.
func (t *tracer) begin(name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name, Start: t.now()})
	t.stack = append(t.stack, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if id < 0 {
		return
	}
	t.spans[id].End = end
	if n := len(t.stack); n > 0 && t.stack[n-1] == id {
		t.stack = t.stack[:n-1]
	}
}

// in runs fn inside a span.
func (t *tracer) in(name string, fn func()) {
	id := t.begin(name)
	fn()
	t.end(id)
}

// selfTimes returns, per span, its duration minus the part of its own
// interval that its child spans cover. Children may overlap each other
// (a handler span and a store span recorded on different goroutines):
// the union of their intervals, clipped to the parent, is subtracted
// once.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		dur := s.End - s.Start
		if dur < 0 {
			dur = 0
		}
		kids := children[s.ID]
		if len(kids) == 0 {
			self[i] = dur
			continue
		}
		type iv struct{ a, b int64 }
		ivs := make([]iv, 0, len(kids))
		for _, k := range kids {
			a, b := spans[k].Start, spans[k].End
			if a < s.Start {
				a = s.Start
			}
			if b > s.End {
				b = s.End
			}
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, hi int64
		hi = s.Start
		for _, v := range ivs {
			if v.b <= hi {
				continue
			}
			if v.a > hi {
				hi = v.a
			}
			covered += v.b - hi
			hi = v.b
		}
		self[i] = dur - covered
	}
	return self
}
