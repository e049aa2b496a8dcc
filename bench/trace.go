package main

import (
	"sort"
	"strings"
	"time"
)

// span is one timed call from the driver into a layer. Spans nest by
// parent id (0 = root) and carry the counts the call returned, so ratios
// are taken where the work happens.
type span struct {
	ID       int                `json:"id"`
	Parent   int                `json:"parent"`
	Workload string             `json:"workload"`
	Pass     int                `json:"pass"`
	Name     string             `json:"name"`
	StartNS  int64              `json:"start_ns"`
	EndNS    int64              `json:"end_ns"`
	Counts   map[string]float64 `json:"counts,omitempty"`
}

// tracer records spans in memory for the driver goroutine; a nil tracer
// records nothing, so call sites need no guard. It is not safe for
// concurrent use — the driver issues layer calls from one goroutine.
type tracer struct {
	workload string
	pass     int
	epoch    time.Time
	spans    []span
	stack    []int // ids of the open spans
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name string) int {
	if t == nil {
		return 0
	}
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Workload: t.workload, Pass: t.pass, Name: name,
		StartNS: time.Since(t.epoch).Nanoseconds(),
	})
	t.stack = append(t.stack, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int, counts map[string]float64) {
	if t == nil {
		return
	}
	if n := len(t.stack); n == 0 || t.stack[n-1] != id {
		panic("bench: tracer spans closed out of order")
	}
	t.stack = t.stack[:len(t.stack)-1]
	s := &t.spans[id-1]
	s.EndNS = time.Since(t.epoch).Nanoseconds()
	s.Counts = counts
}

// selfTimes returns each span's self time in nanoseconds: its duration
// minus the part of that interval its child spans cover (overlapping
// children are counted once).
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, upto := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, upto), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				upto = hi
			}
		}
		self[s.ID] = s.EndNS - s.StartNS - covered
	}
	return self
}

// layerSelfSeconds sums span self times by layer — the span name up to
// its first dot — over the spans below root.
func layerSelfSeconds(spans []span, root int) map[string]float64 {
	under := map[int]bool{root: true}
	for _, s := range spans { // parents precede children by construction
		if under[s.Parent] {
			under[s.ID] = true
		}
	}
	self := selfTimes(spans)
	out := map[string]float64{}
	for _, s := range spans {
		if under[s.ID] {
			layer, _, _ := strings.Cut(s.Name, ".")
			out[layer] += float64(self[s.ID]) / 1e9
		}
	}
	return out
}
