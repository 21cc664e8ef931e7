package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"
)

// span is one timed call into a layer's public API, recorded from the
// benchmark's own code. Parent is the span that caused it (-1 at the top).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	dropped int64
}

// maxSpans caps memory: about 24 MB of spans. Spans past the cap are
// counted in "dropped" and not kept.
const maxSpans = 400_000

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span under parent and returns its id (-1 when not kept).
func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: now, End: -1})
	return id
}

func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// record adds a finished span with explicit host times.
func (t *tracer) record(name string, parent int32, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
}

// selfTime aggregates spans by name: count, total duration, and self
// time — each span's duration minus the union of its children's intervals.
type selfTime struct {
	Count   int64 `json:"count"`
	TotalNs int64 `json:"total_ns"`
	SelfNs  int64 `json:"self_ns"`
}

func selfTimes(spans []span) map[string]*selfTime {
	kids := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]*selfTime)
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		covered := int64(0)
		iv := kids[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		curLo, curHi := int64(-1), int64(-1)
		for _, c := range iv {
			lo, hi := max(c[0], s.Start), min(c[1], s.End)
			if hi <= lo {
				continue
			}
			if lo > curHi {
				covered += curHi - curLo
				curLo, curHi = lo, hi
			} else if hi > curHi {
				curHi = hi
			}
		}
		covered += curHi - curLo
		st := out[s.Name]
		if st == nil {
			st = &selfTime{}
			out[s.Name] = st
		}
		st.Count++
		st.TotalNs += s.End - s.Start
		st.SelfNs += s.End - s.Start - covered
	}
	return out
}

// write stores the spans, their self times and the run's per-layer
// counters as one JSON file under dir, returning its path.
func (t *tracer) write(dir, workload string, seed uint64, layer map[string]metric) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	doc := struct {
		Workload string               `json:"workload"`
		Seed     uint64               `json:"seed"`
		Dropped  int64                `json:"dropped_spans"`
		Self     map[string]*selfTime `json:"self_times"`
		Counters map[string]metric    `json:"counters"`
		Spans    []span               `json:"spans"`
	}{workload, seed, t.dropped, selfTimes(t.spans), layer, t.spans}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+"-seed"+strconv.FormatUint(seed, 10)+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(doc); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
