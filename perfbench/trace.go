package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Span names: one per layer call the benchmark makes, plus the
// benchmark's own phases. Each span records the accesses it covered.
const (
	spWindow         = iota // one timing window
	spRung                  // one ladder rung repetition
	spIndexAll              // hashfn.Indexer.IndexAll over a batch of keys
	spTable                 // core.Table calls for a batch of accesses
	spApplyShard            // directory ShardedDirectory.ApplyShard
	spReplayRun             // replay.Run
	spRequest               // one foreground request, submit to Wait return
	spSubmitBatch           // engine Engine.SubmitBatch
	spSubmitDetached        // engine Engine.SubmitDetachedClass
	spWait                  // engine Ticket.Wait
	spFlush                 // engine Engine.Flush
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"window", "rung", "hashfn.IndexAll", "core.Table", "directory.ApplyShard",
	"replay.Run", "request", "engine.SubmitBatch", "engine.SubmitDetachedClass", "engine.Ticket.Wait",
	"engine.Flush",
}

// span is one recorded interval. Spans of one engine request share req.
type span struct {
	name       uint8
	parent     int32 // index of the enclosing span, -1 for none
	req        int64 // request id, -1 for none
	start, end int64 // nanoseconds since the tracer's epoch
	n          int32 // accesses covered
}

// tracer keeps spans in memory; write saves them when the run ends. A
// nil tracer records nothing, so untraced code paths pay one nil check
// per call.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span starting now and returns its id (-1 on a nil
// tracer).
func (t *tracer) begin(name int, parent int32, req int64) int32 {
	if t == nil {
		return -1
	}
	return t.beginAt(name, parent, req, time.Now())
}

// beginAt opens a span that started at the given time.
func (t *tracer) beginAt(name int, parent int32, req int64, at time.Time) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: uint8(name), parent: parent, req: req,
		start: int64(at.Sub(t.epoch)), end: -1})
	return int32(len(t.spans) - 1)
}

// end closes span id now, covering n accesses.
func (t *tracer) end(id int32, n int) {
	if t == nil || id < 0 {
		return
	}
	t.endAt(id, time.Now(), n)
}

// endAt closes span id at the given time.
func (t *tracer) endAt(id int32, at time.Time, n int) {
	if t == nil || id < 0 {
		return
	}
	s := &t.spans[id]
	s.end, s.n = int64(at.Sub(t.epoch)), int32(n)
}

// mark returns the number of spans recorded so far, so a later
// durations call can look at the spans of one phase only.
func (t *tracer) mark() int { return len(t.spans) }

// durations returns the durations of the spans named name recorded from
// index from on.
func (t *tracer) durations(name, from int) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans[from:] {
		if int(s.name) == name && s.end >= 0 {
			out = append(out, time.Duration(s.end-s.start))
		}
	}
	return out
}

// write saves the spans as CSV to dir/<workload>.csv.
func (t *tracer) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, workload+".csv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,name,parent,req,start_ns,end_ns,accesses")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d,%s,%d,%d,%d,%d,%d\n", i, spanNames[s.name], s.parent, s.req, s.start, s.end, s.n)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
