package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call across a layer boundary, recorded by the
// benchmark around the layer's public entry point.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Block  uint64 `json:"block"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the same code drives the traced and the untraced pass.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, block uint64, parent int) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Block: block, Start: int64(time.Since(t.epoch))})
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.epoch))
}

// write stores the spans as one JSON array.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its children cover (overlapping children count once).
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range spans {
		self[s.Name] += time.Duration(s.End - s.Start - covered(s, children[s.ID]))
	}
	return self
}

// covered returns how many nanoseconds of parent's interval the union of
// kids' intervals spans.
func covered(parent span, kids []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, end int64
	for i, v := range ivs {
		if i == 0 || v.lo > end {
			total += v.hi - v.lo
			end = v.hi
		} else if v.hi > end {
			total += v.hi - end
			end = v.hi
		}
	}
	return total
}
