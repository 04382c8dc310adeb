//bbvet:wallclock span recorder: spans are wall-clock intervals measured around calls into the program

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one recorded interval. Parent indexes the kept span that was open
// when this one began, or is -1.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// spanStats aggregates every span of one name.
type spanStats struct {
	count int64
	total time.Duration
	self  time.Duration
}

// meanNS is the mean span duration in nanoseconds.
func (s spanStats) meanNS() float64 { return ratio(float64(s.total), float64(s.count)) }

type openSpan struct {
	name  int
	start time.Duration
	child time.Duration
	kept  int
}

// tracer records spans in memory. Nested spans (begin/end) come from one
// goroutine: the simulation's. Flat spans (leaf) may come from any goroutine.
// Every span feeds the per-name aggregates; the first maxKept are also kept
// whole and written out when the run ends.
type tracer struct {
	epoch   time.Time
	names   []string
	ids     map[string]int
	stats   []spanStats
	stack   []openSpan
	kept    []span
	maxKept int
	// on gates recording; it only changes while no span is open.
	on bool

	mu sync.Mutex // guards leaf
}

func newTracer(maxKept int) *tracer {
	return &tracer{epoch: time.Now(), ids: make(map[string]int), maxKept: maxKept}
}

// id registers name (set-up time) and returns its handle.
func (t *tracer) id(name string) int {
	if id, ok := t.ids[name]; ok {
		return id
	}
	t.ids[name] = len(t.names)
	t.names = append(t.names, name)
	t.stats = append(t.stats, spanStats{})
	return len(t.names) - 1
}

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// begin opens a span nested in the innermost open one.
func (t *tracer) begin(name int) {
	if !t.on {
		return
	}
	kept := -1
	if len(t.kept) < t.maxKept {
		parent := -1
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].kept
		}
		kept = len(t.kept)
		t.kept = append(t.kept, span{Name: t.names[name], Parent: parent})
	}
	start := t.now()
	if kept >= 0 {
		t.kept[kept].Start = int64(start)
	}
	t.stack = append(t.stack, openSpan{name: name, start: start, kept: kept})
}

// end closes the innermost span.
func (t *tracer) end() { t.endAs(-1) }

// endAs closes the innermost span under the given name (-1 keeps the name it
// was opened with): a timer's task is only known once its callback ran.
func (t *tracer) endAs(name int) {
	if !t.on {
		return
	}
	end := t.now()
	n := len(t.stack) - 1
	sp := t.stack[n]
	t.stack = t.stack[:n]
	if name < 0 {
		name = sp.name
	}
	dur := end - sp.start
	st := &t.stats[name]
	st.count++
	st.total += dur
	st.self += dur - sp.child
	if n > 0 {
		t.stack[n-1].child += dur
	}
	if sp.kept >= 0 {
		t.kept[sp.kept].End = int64(end)
		t.kept[sp.kept].Name = t.names[name]
	}
}

// setOn switches recording on or off; no span may be open.
func (t *tracer) setOn(on bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.on = on
}

// leaf records a finished span with no parent and reports whether recording
// was on; safe from any goroutine.
func (t *tracer) leaf(name int, start, end time.Duration) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return false
	}
	dur := end - start
	st := &t.stats[name]
	st.count++
	st.total += dur
	st.self += dur
	if len(t.kept) < t.maxKept {
		t.kept = append(t.kept, span{Name: t.names[name], Start: int64(start), End: int64(end), Parent: -1})
	}
	return true
}

// get returns the aggregate for name (zero if it never ran).
func (t *tracer) get(name string) spanStats {
	if id, ok := t.ids[name]; ok {
		return t.stats[id]
	}
	return spanStats{}
}

// write stores the kept spans as JSON lines in dir/file.
func (t *tracer) write(dir, file string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, file))
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range t.kept {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return fmt.Errorf("spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}
