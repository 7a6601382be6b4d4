package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed call into a layer during the replay phase. Spans are
// recorded from this package only, around the public calls the engine
// itself makes; nothing inside the simulator is instrumented.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // id of the enclosing span, -1 at the root
	Tick   int    `json:"tick"`   // replay tick the span belongs to; its spans share it
	Arm    string `json:"arm"`    // discovery scheme of the engine being replayed
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spanLog keeps the spans of one process in memory; they are written out
// once, when the benchmark ends. A nil *spanLog records nothing, which is
// how the untraced phases run.
type spanLog struct {
	origin time.Time
	spans  []span
	arm    string
	tick   int
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// begin opens a span under parent (-1 for a root) and returns its id.
func (l *spanLog) begin(name string, parent int) int {
	if l == nil {
		return -1
	}
	id := len(l.spans)
	l.spans = append(l.spans, span{Name: name, ID: id, Parent: parent, Tick: l.tick, Arm: l.arm})
	l.spans[id].Start = int64(time.Since(l.origin))
	return id
}

// end closes span id and returns its duration.
func (l *spanLog) end(id int) time.Duration {
	if l == nil {
		return 0
	}
	l.spans[id].End = int64(time.Since(l.origin))
	return l.spans[id].dur()
}

// selfTimes returns each span's duration minus the part its direct
// children cover, indexed like spans. Children of one parent never
// overlap here (the replay is serial), so the subtraction is exact.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i := range spans {
		self[i] += spans[i].dur()
		if p := spans[i].Parent; p >= 0 {
			self[p] -= spans[i].dur()
		}
	}
	return self
}

// writeSpans writes one JSON object per line: the span's fields plus its
// self time.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	self := selfTimes(spans)
	for i := range spans {
		rec := struct {
			span
			SelfNS int64 `json:"self_ns"`
		}{spans[i], int64(self[i])}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
