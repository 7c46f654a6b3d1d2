package main

import (
	"runtime"
	"slices"
	"time"

	"cuckoodir/internal/directory"
)

// runDSS drives replay-dss-churn: the qry2 raw stream run through the
// benchmark's private-cache model, whose fills, upgrades and evictions
// are applied to a directory provisioned at 1x the caches' aggregate
// blocks. The stream is one cycle from empty caches back to empty caches
// (see churnCycle), applied by one goroutine through ApplyShard in
// shard-affine batches: replay.Run carries fills only, so it cannot
// drive evictions.
func runDSS(b *bench) error {
	t0 := time.Now()
	recs, err := synthesize("qry2", b.cfg.seed, b.cfg.sz.dssRaw)
	if err != nil {
		return err
	}
	cy := churn(recs)
	b.genTime, b.genAcc = time.Since(t0), len(cy.body)+len(cy.flush)
	probe, err := buildDir(dssSets)
	if err != nil {
		return err
	}
	body, flush := route(probe, cy.body), route(probe, cy.flush)
	wins := cycleWindows(probe, cy, b.cfg.sz.window)

	heap0 := heapInUse()
	var dir *directory.ShardedDirectory
	setups, err := b.setUp(func() (exact, error) {
		var err error
		if dir, err = buildDir(dssSets); err != nil {
			return exact{}, err
		}
		applyBatches(dir, body, nil, -1)
		e := exactOf(dir)
		applyBatches(dir, flush, nil, -1)
		return e, nil
	})
	if err != nil {
		return err
	}
	b.check("a cycle leaves the directory empty", dir.Len() == 0, "%d entries left after the flush", dir.Len())

	phases := b.phases(func(tr *tracer) (*phase, error) {
		p := &phase{}
		before := dir.Counters()
		u0 := readUsage()
		deadline := time.Now().Add(b.phaseLen())
		p.win.start(b.cal, time.Now())
		for done := false; !done; {
			for _, w := range wins {
				s := tr.begin(spWindow, -1, -1)
				applyBatches(dir, w.batches, tr, s)
				now := time.Now()
				tr.endAt(s, now, w.n)
				p.win.close(now, uint64(w.n))
				p.accesses += uint64(w.n)
				done = !now.Before(deadline)
			}
		}
		p.use = readUsage().since(u0)
		b.attempted += p.accesses
		b.conserve(before, dir.Counters(), p.accesses)
		return p, nil
	})
	if phases.err != nil {
		return phases.err
	}

	// One more cycle, stopped at the end of its body, where the
	// directory is fullest: every sharer it tracks must be a block the
	// cache model holds.
	applyBatches(dir, body, nil, -1)
	b.checkHeld(dir, cy.held)
	applyBatches(dir, flush, nil, -1)

	b.report(phases, setups)
	b.liveHeap(heap0)
	runtime.KeepAlive(recs)
	runtime.KeepAlive(cy)
	runtime.KeepAlive(body)
	runtime.KeepAlive(flush)
	runtime.KeepAlive(wins)
	runtime.KeepAlive(dir)
	if b.tr == nil {
		return nil
	}
	stream := append(append([]directory.Access(nil), cy.body...), cy.flush...)
	return b.ladder(ladderInput{stream: stream, sets: dssSets})
}

// window is one timing window of the churn cycle.
type window struct {
	batches []batch
	n       int // accesses
}

// cycleWindows splits a churn cycle into timing windows of w accesses,
// the flush joining the last one, each routed on its own so that a
// window boundary is a boundary of the stream. The measured phase only
// stops at the end of a cycle, so every cycle's windows count alike.
func cycleWindows(dir *directory.ShardedDirectory, cy churnCycle, w int) []window {
	var out []window
	for i := 0; i < len(cy.body); i += w {
		accs := cy.body[i:min(i+w, len(cy.body))]
		if i+w >= len(cy.body) {
			accs = append(slices.Clip(accs), cy.flush...)
		}
		out = append(out, window{batches: route(dir, accs), n: len(accs)})
	}
	return out
}

// applyBatches applies shard-affine batches in order through
// ApplyShard, one span per batch under parent.
func applyBatches(dir *directory.ShardedDirectory, bs []batch, tr *tracer, parent int32) {
	for _, bt := range bs {
		s := tr.begin(spApplyShard, parent, -1)
		dir.ApplyShard(bt.shard, bt.accs)
		tr.end(s, len(bt.accs))
	}
}

// checkHeld checks the directory against the cache model's holdings:
// every sharer bit names a core holding the block, and the directory
// holds no more entries than it has slots.
func (b *bench) checkHeld(dir *directory.ShardedDirectory, held map[uint64]uint64) {
	stray := 0
	dir.ForEach(func(addr, sharers uint64) bool {
		if sharers&^held[addr] != 0 {
			stray++
		}
		return true
	})
	b.check("directory sharers are a subset of the cached blocks", stray == 0,
		"%d entries name a core that does not hold the block", stray)
	b.check("Len <= Capacity", dir.Len() <= dir.Capacity(), "Len %d > Capacity %d", dir.Len(), dir.Capacity())
}
