package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span names, one per layer boundary the benchmark crosses from outside.
const (
	spanOp     = "op"            // root: op due -> op complete
	spanGen    = "gen.wait"      // op due -> generator woke to issue it
	spanLoop   = "loop.client"   // Runtime.Do submitted -> running in the client loop
	spanRPC    = "rpc.call"      // service client call issued -> its done callback
	spanSend   = "wire.send"     // one rt.Runtime.Send (codec encode + transport Send)
	spanHandle = "client.handle" // one reply through the client's message handler
)

var spanNames = []string{spanOp, spanGen, spanLoop, spanRPC, spanSend, spanHandle}

// span is one timed interval. Spans of one op share Op; Parent is the ID
// of the span that caused this one, -1 for a root.
type span struct {
	Op     uint64 `json:"op"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced ops pay one nil check per boundary.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(t0 time.Time) *tracer {
	return &tracer{t0: t0, spans: make([]span, 0, 1<<16)}
}

// add records a finished span and returns its ID.
func (t *tracer) add(op uint64, parent int32, name string, start, end time.Time) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Op: op, ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
	return id
}

// open records a span whose end is not known yet; close sets it.
func (t *tracer) open(op uint64, parent int32, name string, start time.Time) int32 {
	return t.add(op, parent, name, start, start)
}

func (t *tracer) close(id int32, end time.Time) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].End = end.Sub(t.t0).Nanoseconds()
	t.mu.Unlock()
}

// durations returns every span's duration in µs, by name.
func (t *tracer) durations() map[string][]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string][]float64)
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start)/1e3)
	}
	return out
}

// selfTimes returns each span's self time in µs, by name: its duration
// minus the part of its interval that its children cover.
func (t *tracer) selfTimes() map[string][]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int32][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string][]float64)
	for _, s := range t.spans {
		covered := coveredNs(s, children[s.ID])
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-covered)/1e3)
	}
	return out
}

// coveredNs is the length of the union of the children's intervals,
// clipped to the parent's.
func coveredNs(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	return total + curHi - curLo
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
