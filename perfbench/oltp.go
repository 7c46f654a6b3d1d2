package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"cuckoodir/internal/directory"
	"cuckoodir/internal/replay"
	"cuckoodir/internal/trace"
)

// runOLTP drives replay-oltp-warm: the oracle profile's raw stream
// replayed through replay.Run (direct path, one worker) into a cuckoo
// directory already warmed with the stream's footprint, so the measured
// phase is all hits.
func runOLTP(b *bench) error {
	recs, err := b.generate("oracle", b.cfg.sz.oltpRecords)
	if err != nil {
		return err
	}
	heap0 := heapInUse()
	var dir *directory.ShardedDirectory
	setups, err := b.setUp(func() (exact, error) {
		var err error
		dir, err = warmOLTP(recs, b.cfg.sz.oltpSets)
		if err != nil {
			return exact{}, err
		}
		return exactOf(dir), nil
	})
	if err != nil {
		return err
	}
	dir.ResetStats()

	var consumed []int
	phases := b.phases(func(tr *tracer) (*phase, error) {
		p, n, err := b.replayPhase(dir, recs, tr)
		consumed = append(consumed, n)
		return p, err
	})
	if phases.err != nil {
		return phases.err
	}
	b.checkIdeal(dir, recs, consumed)
	b.report(phases, setups)
	b.liveHeap(heap0)
	runtime.KeepAlive(recs)
	runtime.KeepAlive(dir)
	if b.tr != nil {
		return b.ladder(ladderInput{warm: fills(recs), stream: fills(recs), sets: b.cfg.sz.oltpSets})
	}
	return nil
}

// warmOLTP builds the OLTP directory and replays the chunk into it once:
// after this every block of the chunk is tracked.
func warmOLTP(recs []trace.Record, sets int) (*directory.ShardedDirectory, error) {
	dir, err := buildDir(sets)
	if err != nil {
		return nil, err
	}
	res, err := replay.Run(dir, &sliceSource{recs: recs}, replay.Options{Workers: 1})
	if err != nil {
		return nil, fmt.Errorf("warm fill: %w", err)
	}
	if res.Accesses != uint64(len(recs)) {
		return nil, fmt.Errorf("warm fill applied %d of %d records", res.Accesses, len(recs))
	}
	return dir, nil
}

// sliceSource is a replay.Source over a slice of records.
type sliceSource struct {
	recs []trace.Record
	i    int
}

func (s *sliceSource) Next() (trace.Record, error) {
	if s.i == len(s.recs) {
		return trace.Record{}, io.EOF
	}
	s.i++
	return s.recs[s.i-1], nil
}

// cycleSource is the replay.Source of a measured phase: it cycles the
// chunk, closes a timing window every w records, and ends the stream at
// the first window boundary after the deadline.
type cycleSource struct {
	recs     []trace.Record
	pos      int
	n        int // records handed out
	w, left  int
	deadline time.Time
	win      *windows
	cal      *calibrator
	tr       *tracer
	parent   int32
	winSpan  int32
}

func (s *cycleSource) Next() (trace.Record, error) {
	if s.left == 0 {
		now := time.Now()
		if s.n == 0 {
			s.win.start(s.cal, now)
		} else {
			s.tr.endAt(s.winSpan, now, s.w)
			if now = s.win.close(now, uint64(s.w)); !now.Before(s.deadline) {
				return trace.Record{}, io.EOF
			}
		}
		s.winSpan = s.tr.beginAt(spWindow, s.parent, -1, now)
		s.left = s.w
	}
	s.left--
	r := s.recs[s.pos]
	if s.pos++; s.pos == len(s.recs) {
		s.pos = 0
	}
	s.n++
	return r, nil
}

// replayPhase replays the cycled chunk through replay.Run for the
// configured time and returns the phase and the records it consumed.
func (b *bench) replayPhase(dir *directory.ShardedDirectory, recs []trace.Record, tr *tracer) (*phase, int, error) {
	p := &phase{}
	before := dir.Counters()
	u0 := readUsage()
	run := tr.begin(spReplayRun, -1, -1)
	src := &cycleSource{recs: recs, w: b.cfg.sz.window, deadline: time.Now().Add(b.phaseLen()),
		win: &p.win, cal: b.cal, tr: tr, parent: run}
	res, err := replay.Run(dir, src, replay.Options{Workers: 1})
	tr.end(run, int(res.Accesses))
	p.use = readUsage().since(u0)
	if err != nil {
		return nil, 0, fmt.Errorf("replay.Run: %w", err)
	}
	p.accesses = res.Accesses
	b.attempted += uint64(src.n)
	b.failed += res.Dropped
	after := dir.Counters()
	b.check("replay applied every record", res.Accesses == uint64(src.n) && res.Dropped == 0,
		"%d records read, %d applied, %d dropped", src.n, res.Accesses, res.Dropped)
	b.conserve(before, after, res.Accesses)
	b.check("all hits: no inserts and no forced evictions", after.Inserts == before.Inserts && after.Forced == before.Forced,
		"%d inserts, %d forced evictions in the measured phase", after.Inserts-before.Inserts, after.Forced-before.Forced)
	return p, src.n, nil
}

// checkIdeal checks that the directory matches an ideal directory fed
// the same stream: the warm fill, then each measured phase's records.
// Replaying the whole chunk from any state the chunk's own prefixes
// reach yields the same sharer sets (a block's last store and later
// reads decide its mask; a read-only block keeps the readers it already
// has), so a phase that consumed k full passes plus r records is fed as
// one pass, if k > 0, plus the r-record prefix.
func (b *bench) checkIdeal(dir *directory.ShardedDirectory, recs []trace.Record, consumed []int) {
	ideal, err := directory.Build(directory.Spec{Org: directory.OrgIdeal, NumCaches: cores})
	if err != nil {
		b.check("final directory matches an ideal directory", false, "building the ideal directory: %v", err)
		return
	}
	feed := func(rs []trace.Record) {
		for _, r := range rs {
			if r.Access.Write {
				ideal.Write(r.Access.Addr, r.Core)
			} else {
				ideal.Read(r.Access.Addr, r.Core)
			}
		}
	}
	feed(recs)
	for _, n := range consumed {
		if n >= len(recs) {
			feed(recs)
		}
		feed(recs[:n%len(recs)])
	}
	mismatches := 0
	dir.ForEach(func(addr, sharers uint64) bool {
		if got, ok := ideal.Lookup(addr); !ok || got != sharers {
			mismatches++
		}
		return true
	})
	b.check("final directory matches an ideal directory", mismatches == 0 && dir.Len() == ideal.Len(),
		"%d entries differ; %d tracked, ideal tracks %d", mismatches, dir.Len(), ideal.Len())
}
