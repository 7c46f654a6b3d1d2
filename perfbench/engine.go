package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"cuckoodir/internal/directory"
	"cuckoodir/internal/engine"
	"cuckoodir/internal/qos"
)

// engineOptions is the engine configuration every engine run uses: one
// drainer beside the client goroutine, weighted-deficit class
// arbitration with the default weights.
var engineOptions = engine.Options{Drainers: 1, Sched: qos.Sched{Policy: qos.WeightedDeficit}}

// runEngineRR drives engine-rr-mixed: one client keeps depth foreground
// SubmitBatch tickets outstanding against the warm OLTP directory and
// interleaves background SubmitDetachedClass batches at a fixed ratio.
func runEngineRR(b *bench) error {
	recs, err := b.generate("oracle", b.cfg.sz.oltpRecords)
	if err != nil {
		return err
	}
	pieces := cut(fills(recs))
	heap0 := heapInUse()
	var dir *directory.ShardedDirectory
	var eng *engine.Engine
	setups, err := b.setUp(func() (exact, error) {
		if eng != nil {
			if err := eng.Close(); err != nil {
				return exact{}, err
			}
		}
		var err error
		if dir, err = warmOLTP(recs, b.cfg.sz.oltpSets); err != nil {
			return exact{}, err
		}
		e := exactOf(dir)
		eng, err = engine.New(dir, engineOptions)
		return e, err
	})
	if err != nil {
		return err
	}
	defer eng.Close()

	var last rrOutcome
	phases := b.phases(func(tr *tracer) (*phase, error) {
		before := dir.Counters()
		st0 := eng.Stats()
		u0 := readUsage()
		c := rrClient{eng: eng, pieces: pieces, cal: b.cal, tr: tr}
		out, err := c.run(b.cfg.sz.engWindow, time.Now().Add(b.phaseLen()), 0)
		if err != nil {
			return nil, err
		}
		p := &phase{win: out.win, lat: out.lat, per: b.cfg.sz.engWindow, accesses: out.accesses,
			use: readUsage().since(u0)}
		b.attempted += out.requests
		b.failed += out.failed
		b.checkEngine(eng, st0, out)
		b.conserve(before, dir.Counters(), out.accesses)
		last = out
		return p, nil
	})
	if phases.err != nil {
		return phases.err
	}
	b.report(phases, setups)
	if b.tr != nil {
		b.engineMetrics(eng, last, phases.tracedFrom)
	}
	phases, last = phaseSet{}, rrOutcome{} // measurement data, not the program's heap
	b.liveHeap(heap0)
	runtime.KeepAlive(pieces)
	runtime.KeepAlive(dir)
	if b.tr == nil {
		return nil
	}
	return b.ladder(ladderInput{warm: fills(recs), stream: fills(recs), sets: b.cfg.sz.oltpSets, engineDone: true})
}

// rrClient is the engine workload's client: it walks the piece sequence
// cyclically, keeping depth foreground tickets outstanding and
// submitting each background piece detached as it comes up.
type rrClient struct {
	eng    *engine.Engine
	pieces []piece
	cal    *calibrator
	tr     *tracer
}

// rrOutcome is what one client run saw.
type rrOutcome struct {
	win      windows
	lat      []time.Duration // client-side foreground latencies
	accesses uint64          // accesses submitted, both classes
	requests uint64          // submissions attempted, both classes
	failed   uint64          // submissions or tickets that failed
	firstErr error
}

// pending is one outstanding foreground request.
type pending struct {
	t    *engine.Ticket
	t0   time.Time
	id   int64
	span int32
}

// run drives the engine until, at the end of a window of perWindow
// foreground completions, the deadline has passed, or, when pieces > 0,
// until that many pieces have been submitted. It then waits for the
// outstanding tickets and flushes the engine.
func (c *rrClient) run(perWindow int, deadline time.Time, pieces int) (rrOutcome, error) {
	ctx := context.Background()
	var out rrOutcome
	var ring [depth]pending
	head, n, next := 0, 0, 0
	inWin, winAcc := 0, uint64(0)
	stopping := false
	out.win.start(c.cal, time.Now())
	winSpan := c.tr.begin(spWindow, -1, -1)
	fail := func(err error) {
		out.failed++
		if out.firstErr == nil {
			out.firstErr = err
		}
	}
	for {
		for n < depth && !stopping {
			p := c.pieces[next%len(c.pieces)]
			next++
			out.requests++
			out.accesses += uint64(len(p.accs))
			winAcc += uint64(len(p.accs))
			if p.class == qos.Background {
				s := c.tr.begin(spSubmitDetached, winSpan, -1)
				if err := c.eng.SubmitDetachedClass(ctx, qos.Background, p.accs); err != nil {
					fail(err)
				}
				c.tr.end(s, len(p.accs))
			} else {
				t0 := time.Now()
				id := int64(next)
				req := c.tr.beginAt(spRequest, winSpan, id, t0)
				s := c.tr.beginAt(spSubmitBatch, req, id, t0)
				t, err := c.eng.SubmitBatch(ctx, p.accs)
				c.tr.end(s, len(p.accs))
				if err != nil {
					fail(err)
				} else {
					ring[(head+n)%depth] = pending{t: t, t0: t0, id: id, span: req}
					n++
				}
			}
			stopping = pieces > 0 && next == pieces
		}
		if n == 0 {
			break
		}
		p := ring[head]
		head, n = (head+1)%depth, n-1
		w := c.tr.begin(spWait, p.span, p.id)
		err := p.t.Wait(ctx)
		now := time.Now()
		c.tr.endAt(w, now, 0)
		c.tr.endAt(p.span, now, len(p.t.Ops()))
		if err != nil {
			fail(err)
		}
		out.lat = append(out.lat, now.Sub(p.t0))
		if inWin++; inWin == perWindow && !stopping {
			c.tr.endAt(winSpan, now, int(winAcc))
			now = out.win.close(now, winAcc)
			inWin, winAcc = 0, 0
			stopping = pieces == 0 && !now.Before(deadline)
			winSpan = c.tr.beginAt(spWindow, -1, -1, now)
		}
	}
	f := c.tr.begin(spFlush, -1, -1)
	err := c.eng.Flush(ctx)
	c.tr.end(f, 0)
	if err != nil {
		return out, fmt.Errorf("engine flush: %w", err)
	}
	return out, nil
}

// checkEngine checks one phase against the engine's own accounting:
// every ticket succeeded, nothing was rejected or shed, and every access
// submitted in the phase was completed.
func (b *bench) checkEngine(eng *engine.Engine, st0 engine.Stats, out rrOutcome) {
	st := eng.Stats()
	b.check("every foreground ticket and submission succeeded", out.failed == 0,
		"%d failed, first: %v", out.failed, out.firstErr)
	b.check("no rejected or shed submissions", st.Rejected == st0.Rejected && st.Shed == st0.Shed,
		"%d rejected, %d shed", st.Rejected-st0.Rejected, st.Shed-st0.Shed)
	sub, cmp, erred := st.SubmittedAccesses-st0.SubmittedAccesses, st.CompletedAccesses-st0.CompletedAccesses,
		st.ErredAccesses-st0.ErredAccesses
	b.check("engine submitted = completed + erred", sub == cmp+erred && sub == out.accesses,
		"submitted %d, completed %d, erred %d, client sent %d", sub, cmp, erred, out.accesses)
}

// engineMetrics reports the engine and QoS layer metrics of the client
// run out, whose spans start at index from.
func (b *bench) engineMetrics(eng *engine.Engine, out rrOutcome, from int) {
	st, h := eng.Stats(), eng.Health()
	var beats uint64
	for _, d := range h.Drainers {
		beats += d.Beats
	}
	fg, bg := st.Classes[qos.Foreground], st.Classes[qos.Background]
	fgP50, _, _ := fg.Latency.Percentiles()
	bgP50, _, _ := bg.Latency.Percentiles()
	b.set("engine.submit_ns", "ns", quantile(nanos(b.tr.durations(spSubmitBatch, from)), 0.5))
	b.set("engine.wait_us", "us", quantile(micros(b.tr.durations(spWait, from)), 0.5))
	b.set("engine.accs_per_run", "count", float64(st.CompletedAccesses)/float64(beats))
	b.set("engine.queue_p50_us", "us", float64(fgP50)/1e3)
	b.set("engine.req_p99_us", "us", quantile(micros(out.lat), 0.99))
	b.set("qos.bg_share", "ratio", float64(bg.CompletedAccesses)/float64(st.CompletedAccesses))
	b.set("qos.bg_p50_us", "us", float64(bgP50)/1e3)
}
