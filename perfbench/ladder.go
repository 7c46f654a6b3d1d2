package main

import (
	"fmt"
	"math/bits"
	"time"

	"cuckoodir/internal/core"
	"cuckoodir/internal/directory"
	"cuckoodir/internal/engine"
	"cuckoodir/internal/hashfn"
	"cuckoodir/internal/replay"
)

// ladderInput is a workload's stream for the layer ladder.
type ladderInput struct {
	warm   []directory.Access // applied untimed before every rung; nil starts empty
	stream []directory.Access // the timed stream
	sets   int                // per-way sets of each directory shard
	// engineDone is set when the measured phases already reported the
	// engine metrics, so the engine rung only times.
	engineDone bool
}

// ladder runs the workload's stream through each layer's public entry
// point in turn, from the same starting state, and reports each rung in
// ns per access and the gap between adjacent rungs as the upper layer's
// self time:
//
//	hashfn.Indexer.IndexAll -> core.Table -> ShardedDirectory.ApplyShard -> engine
//
// replay.Run carries fills only, so the replay rung runs the stream's
// fills and is compared with ApplyShard over the same fills.
func (b *bench) ladder(in ladderInput) error {
	probe, err := buildDir(in.sets)
	if err != nil {
		return err
	}
	warm, stream := route(probe, in.warm), route(probe, in.stream)
	fillRecs := records(in.stream)
	fillBatches := route(probe, fills(fillRecs))

	indexAll := b.rung(len(in.stream), func() (time.Duration, error) {
		return b.indexAllRung(stream, in.sets), nil
	})
	table := b.rung(len(in.stream), func() (time.Duration, error) {
		ts := newTables(in.sets)
		ts.apply(warm, nil, -1)
		r := b.tr.begin(spRung, -1, -1)
		t0 := time.Now()
		ts.apply(stream, b.tr, r)
		d := time.Since(t0)
		b.tr.end(r, len(in.stream))
		return d, nil
	})
	var lastDir *directory.ShardedDirectory
	apply := b.rung(len(in.stream), func() (time.Duration, error) {
		var d time.Duration
		var err error
		lastDir, d, err = b.applyRung(in.sets, warm, stream)
		return d, err
	})
	var eng *engine.Engine
	var out rrOutcome
	from := 0
	eng1 := b.rung(len(in.stream), func() (time.Duration, error) {
		dir, _, err := b.applyRung(in.sets, warm, nil)
		if err != nil {
			return 0, err
		}
		if eng, err = engine.New(dir, engineOptions); err != nil {
			return 0, err
		}
		pieces := cut(in.stream)
		c := rrClient{eng: eng, pieces: pieces, cal: b.cal, tr: b.tr}
		from = b.tr.mark()
		r := b.tr.begin(spRung, -1, -1)
		t0 := time.Now()
		out, err = c.run(len(pieces)+1, time.Time{}, len(pieces))
		d := time.Since(t0)
		b.tr.end(r, len(in.stream))
		if err == nil && out.failed > 0 {
			err = fmt.Errorf("engine rung: %d submissions failed, first: %w", out.failed, out.firstErr)
		}
		if cerr := eng.Close(); err == nil {
			err = cerr
		}
		return d, err
	})
	applyFills := b.rung(len(fillRecs), func() (time.Duration, error) {
		_, d, err := b.applyRung(in.sets, warm, fillBatches)
		return d, err
	})
	replayFills := b.rung(len(fillRecs), func() (time.Duration, error) {
		dir, _, err := b.applyRung(in.sets, warm, nil)
		if err != nil {
			return 0, err
		}
		r := b.tr.begin(spRung, -1, -1)
		s := b.tr.begin(spReplayRun, r, -1)
		t0 := time.Now()
		res, err := replay.Run(dir, &sliceSource{recs: fillRecs}, replay.Options{Workers: 1})
		d := time.Since(t0)
		b.tr.end(s, int(res.Accesses))
		b.tr.end(r, int(res.Accesses))
		return d, err
	})
	for _, r := range []rungResult{indexAll, table, apply, eng1, applyFills, replayFills} {
		if r.err != nil {
			return fmt.Errorf("ladder: %w", r.err)
		}
	}

	b.set("hashfn.indexall_ns", "ns", indexAll.ns)
	b.set("ladder.table_ns", "ns", table.ns)
	b.set("directory.apply_ns_per_acc", "ns", apply.ns)
	b.set("ladder.engine_ns", "ns", eng1.ns)
	b.set("ladder.applyshard_fills_ns", "ns", applyFills.ns)
	b.set("ladder.replay_ns", "ns", replayFills.ns)
	b.set("ladder.core_self_ns", "ns", table.ns-indexAll.ns)
	b.set("ladder.directory_self_ns", "ns", apply.ns-table.ns)
	b.set("ladder.engine_self_ns", "ns", eng1.ns-apply.ns)
	b.set("replay.overhead_ns_per_acc", "ns", replayFills.ns-applyFills.ns)
	b.directoryMetrics(lastDir)
	if !in.engineDone {
		b.engineMetrics(eng, out, from)
	}
	b.coreCalls(in.sets, warm, stream)
	return nil
}

// rungResult is a rung's median time per access.
type rungResult struct {
	ns  float64
	err error
}

// rung runs fn cfg.sz.rungReps times; fn returns the timed part of one
// repetition over n accesses.
func (b *bench) rung(n int, fn func() (time.Duration, error)) rungResult {
	var ns []float64
	for i := 0; i < b.cfg.sz.rungReps; i++ {
		d, err := fn()
		if err != nil {
			return rungResult{err: err}
		}
		ns = append(ns, float64(d)/float64(n))
	}
	return rungResult{ns: quantile(ns, 0.5)}
}

// indexSink keeps the IndexAll results observable.
var indexSink uint64

// indexAllRung computes every way's set index for each access with the
// directory slices' indexer and returns the time taken.
func (b *bench) indexAllRung(stream []batch, sets int) time.Duration {
	ix := hashfn.NewIndexer(hashfn.NewSkew(bits.TrailingZeros(uint(sets))), ways, uint64(sets-1))
	var dst [hashfn.MaxWays]uint64
	var sink uint64
	n := 0
	r := b.tr.begin(spRung, -1, -1)
	t0 := time.Now()
	for _, bt := range stream {
		s := b.tr.begin(spIndexAll, r, -1)
		for _, a := range bt.accs {
			ix.IndexAll(a.Addr, &dst)
			sink ^= dst[0]
		}
		b.tr.end(s, len(bt.accs))
		n += len(bt.accs)
	}
	d := time.Since(t0)
	b.tr.end(r, n)
	indexSink ^= sink
	return d
}

// applyRung builds a directory, applies warm untimed and then times
// applying stream.
func (b *bench) applyRung(sets int, warm, stream []batch) (*directory.ShardedDirectory, time.Duration, error) {
	dir, err := buildDir(sets)
	if err != nil {
		return nil, 0, err
	}
	applyBatches(dir, warm, nil, -1)
	if stream == nil {
		return dir, 0, nil
	}
	r := b.tr.begin(spRung, -1, -1)
	t0 := time.Now()
	applyBatches(dir, stream, b.tr, r)
	d := time.Since(t0)
	b.tr.end(r, 0)
	return dir, d, nil
}

// directoryMetrics reports the directory layer's counts over the
// applied rung: warm fill plus stream.
func (b *bench) directoryMetrics(dir *directory.ShardedDirectory) {
	c := dir.Counters()
	b.set("directory.attempts_per_insert", "count", c.MeanAttempts())
	b.set("directory.forced_per_kacc", "count", float64(c.Forced)*1000/float64(c.Ops()))
	b.set("directory.load", "ratio", dir.Stats().MeanOccupancy())
	var most, total uint64
	per := dir.CountersByShard()
	for _, s := range per {
		most, total = max(most, s.Inserts), total+s.Inserts
	}
	b.set("directory.shard_imbalance", "ratio", float64(most)*float64(len(per))/float64(total))
}

// tables is the core rung's state: one core.Table per directory shard,
// driven with the directory's sharer-mask semantics.
type tables []*core.Table[uint64]

func newTables(sets int) tables {
	ts := make(tables, shards)
	for i := range ts {
		ts[i] = core.NewTable[uint64](core.Config{Ways: ways, SetsPerWay: sets})
	}
	return ts
}

// apply runs batches through the tables, one span per batch.
func (ts tables) apply(bs []batch, tr *tracer, parent int32) {
	for _, bt := range bs {
		s := tr.begin(spTable, parent, -1)
		t := ts[bt.shard]
		for _, a := range bt.accs {
			bit := uint64(1) << uint(a.Cache)
			p := t.Find(a.Addr)
			switch {
			case a.Kind == directory.AccessEvict:
				if p != nil && *p&bit != 0 {
					if *p &^= bit; *p == 0 {
						t.Delete(a.Addr)
					}
				}
			case p == nil:
				t.Insert(a.Addr, bit)
			case a.Kind == directory.AccessWrite:
				*p = bit
			default:
				*p |= bit
			}
		}
		tr.end(s, len(bt.accs))
	}
}

// coreCalls reports core.Table's per-call costs: it replays warm and
// stream through fresh tables timing every Find, Insert and Delete, then
// deletes every remaining key, and subtracts the cost of reading the
// clock from each call.
func (b *bench) coreCalls(sets int, warm, stream []batch) {
	clock := clockCost()
	ts := newTables(sets)
	var find, insert, del callCost
	var attempts uint64
	for _, bs := range [][]batch{warm, stream} {
		for _, bt := range bs {
			t := ts[bt.shard]
			for _, a := range bt.accs {
				bit := uint64(1) << uint(a.Cache)
				t0 := time.Now()
				p := t.Find(a.Addr)
				find.add(time.Since(t0) - clock)
				switch {
				case a.Kind == directory.AccessEvict:
					if p != nil && *p&bit != 0 {
						if *p &^= bit; *p == 0 {
							t0 := time.Now()
							t.Delete(a.Addr)
							del.add(time.Since(t0) - clock)
						}
					}
				case p == nil:
					t0 := time.Now()
					res := t.Insert(a.Addr, bit)
					insert.add(time.Since(t0) - clock)
					attempts += uint64(res.Attempts)
				case a.Kind == directory.AccessWrite:
					*p = bit
				default:
					*p |= bit
				}
			}
		}
	}
	for _, t := range ts {
		var keys []uint64
		t.ForEach(func(e core.Entry[uint64]) bool {
			keys = append(keys, e.Key)
			return true
		})
		for _, k := range keys {
			t0 := time.Now()
			t.Delete(k)
			del.add(time.Since(t0) - clock)
		}
	}
	b.set("core.find_ns", "ns", find.mean())
	b.set("core.insert_ns", "ns", insert.mean())
	b.set("core.delete_ns", "ns", del.mean())
	b.set("core.attempts_per_insert", "count", float64(attempts)/float64(insert.n))
}

// callCost accumulates per-call durations.
type callCost struct {
	n     int
	total time.Duration
}

func (c *callCost) add(d time.Duration) { c.n, c.total = c.n+1, c.total+d }

// mean returns the mean call cost in ns.
func (c callCost) mean() float64 { return float64(c.total) / float64(c.n) }

// clockCost returns the mean cost of one time.Now call.
func clockCost() time.Duration {
	const n = 1 << 16
	t0 := time.Now()
	for i := 0; i < n; i++ {
		_ = time.Now()
	}
	return time.Since(t0) / n
}
