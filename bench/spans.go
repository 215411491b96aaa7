package main

import (
	"encoding/json"
	"io"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs/reqtrace"
)

// spanLog keeps the spans of a traced run in memory until the run
// ends: one span per layer call the benchmark makes, named after the
// layer, with its parent. A nil *spanLog records nothing, so untraced
// runs pay one nil check per call.
type spanLog struct {
	mu    sync.Mutex
	base  time.Time
	next  int
	spans []spanEvent
}

type spanEvent struct {
	id, parent, name, workload string
	lane                       int
	start                      time.Time
	dur                        time.Duration
}

func newSpanLog() *spanLog { return &spanLog{base: time.Now()} }

// openSpan is a span that has begun; end records it.
type openSpan struct {
	log *spanLog
	ev  spanEvent
}

// begin opens a span under parent ("" for a root). lane separates
// concurrent callers, such as the serving workload's two clients.
func (l *spanLog) begin(workload, parent, name string, lane int) *openSpan {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	l.next++
	id := "b" + strconv.Itoa(l.next)
	l.mu.Unlock()
	return &openSpan{log: l, ev: spanEvent{id: id, parent: parent, name: name, workload: workload, lane: lane, start: time.Now()}}
}

// id is the span's identifier, for use as a child's parent.
func (s *openSpan) id() string {
	if s == nil {
		return ""
	}
	return s.ev.id
}

func (s *openSpan) end() {
	if s == nil {
		return
	}
	s.ev.dur = time.Since(s.ev.start)
	s.log.add(s.ev)
}

func (l *spanLog) add(ev spanEvent) {
	l.mu.Lock()
	l.spans = append(l.spans, ev)
	l.mu.Unlock()
}

// addRemote records spans the service returned for one request
// (GET /v1/requests/{id}/trace). The request's root span is parented
// to the client-side span that sent it.
func (l *spanLog) addRemote(workload string, clientSpan *openSpan, lane int, spans []reqtrace.SpanData) {
	if l == nil {
		return
	}
	for _, sd := range spans {
		parent := sd.Parent
		if parent == "" {
			parent = clientSpan.id()
		}
		l.add(spanEvent{
			id: sd.ID, parent: parent, name: sd.Service + "/" + sd.Name, workload: workload, lane: lane,
			start: time.UnixMicro(sd.StartUS), dur: time.Duration(sd.DurUS) * time.Microsecond,
		})
	}
}

// writeChrome writes the spans as Chrome trace-event JSON (loadable in
// Perfetto or chrome://tracing): one process per workload, one thread
// per lane.
func (l *spanLog) writeChrome(w io.Writer, workloads []string) error {
	type event struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		TS   float64           `json:"ts"`
		Dur  float64           `json:"dur,omitempty"`
		PID  int               `json:"pid"`
		TID  int               `json:"tid"`
		Args map[string]string `json:"args,omitempty"`
	}
	pid := make(map[string]int)
	var evs []event
	for i, w := range workloads {
		pid[w] = i + 1
		evs = append(evs, event{Name: "process_name", Ph: "M", PID: i + 1, Args: map[string]string{"name": w}})
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range l.spans {
		args := map[string]string{"id": s.id}
		if s.parent != "" {
			args["parent"] = s.parent
		}
		evs = append(evs, event{
			Name: s.name, Ph: "X",
			TS:  float64(s.start.Sub(l.base)) / float64(time.Microsecond),
			Dur: float64(s.dur) / float64(time.Microsecond),
			PID: pid[s.workload], TID: s.lane, Args: args,
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"displayTimeUnit": "ms", "traceEvents": evs})
}

// selfTimes returns each span's self time in microseconds — its
// duration minus the durations of its direct children — grouped by
// span name.
func selfTimes(spans []reqtrace.SpanData) map[string][]int64 {
	child := make(map[string]int64)
	for _, s := range spans {
		if s.Parent != "" {
			child[s.Parent] += s.DurUS
		}
	}
	out := make(map[string][]int64)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], s.DurUS-child[s.ID])
	}
	return out
}
