package coherence

import (
	"math/bits"

	"cuckoodir/internal/cache"
	"cuckoodir/internal/directory"
	"cuckoodir/internal/event"
	"cuckoodir/internal/workload"
)

// ---- core controller ----

// coreCtl drives one in-order core: it issues the workload's accesses one
// at a time, stalling on misses and upgrades until the directory responds.
type coreCtl struct {
	s       *System
	id      int
	gen     *workload.Generator
	started bool
	// idle marks a core that reached the run target and stopped issuing;
	// Run re-kicks idle cores when the target advances.
	idle bool

	// outstanding transaction state
	waiting   bool
	missAddr  uint64
	missWrite bool
	missStart event.Time
	isUpgrade bool
}

func newCoreCtl(s *System, id int, gen *workload.Generator) *coreCtl {
	return &coreCtl{s: s, id: id, gen: gen}
}

// issue runs one access; on a hit it schedules the next issue, on a miss
// it sends the request and stalls until data returns.
func (c *coreCtl) issue() {
	if c.waiting {
		return
	}
	if c.s.completed >= c.s.target {
		c.idle = true
		return
	}
	c.idle = false
	a := c.gen.Next()
	cch := c.s.tiles.Caches[c.id]
	st := cch.State(a.Addr)
	switch {
	case st == cache.Modified || (st == cache.Shared && !a.Write):
		// Plain hit: touch LRU via the cache and retire.
		cch.Access(a.Addr, a.Write)
		c.s.coreStats.Accesses++
		c.s.coreStats.Hits++
		c.s.completed++
		c.s.q.After(c.s.cfg.CacheHitLatency, c.issue)
	case st == cache.Shared && a.Write:
		// Upgrade: GetM without data transfer. Promotion to M happens
		// when the grant arrives (completeMiss), preserving the
		// single-writer invariant while the GetM is in flight.
		c.beginMiss(a.Addr, true, true)
	default:
		c.beginMiss(a.Addr, a.Write, false)
	}
}

func (c *coreCtl) beginMiss(addr uint64, write, upgrade bool) {
	c.waiting = true
	c.missAddr = addr
	c.missWrite = write
	c.isUpgrade = upgrade
	c.missStart = c.s.q.Now()
	k := getS
	if write {
		k = getM
	}
	c.s.send(c.id, c.s.tiles.Home(addr), msg{
		kind: k, addr: addr, src: c.id, upgrade: upgrade,
	}, ctrlBytes, true)
}

// handle processes messages delivered to this core.
func (c *coreCtl) handle(m msg) {
	switch m.kind {
	case inv:
		// Drop the copy (possible already gone if we evicted it racily)
		// and acknowledge to the home directory.
		c.s.tiles.Caches[c.id].Remove(m.addr)
		c.s.send(c.id, c.s.tiles.Home(m.addr), msg{kind: invAck, addr: m.addr, src: c.id}, ctrlBytes, true)
	case recall:
		// Downgrade M->S and return the data to the home directory.
		c.s.tiles.Caches[c.id].Downgrade(m.addr)
		c.s.send(c.id, c.s.tiles.Home(m.addr), msg{kind: recallAck, addr: m.addr, src: c.id}, dataBytes, true)
	case data:
		c.completeMiss()
	default:
		panic("coherence: unexpected message at core")
	}
}

// completeMiss fills the cache (unless this was an upgrade) and retires
// the stalled access.
func (c *coreCtl) completeMiss() {
	if !c.waiting {
		panic("coherence: data without outstanding miss")
	}
	cch := c.s.tiles.Caches[c.id]
	// For an upgrade whose copy survived, this is a write hit that
	// promotes S to M; otherwise (plain miss, or an upgrade whose copy a
	// racing invalidation stripped — the grant carried data) it fills,
	// possibly evicting a victim.
	res := cch.Access(c.missAddr, c.missWrite)
	if res.Victim != nil {
		k := putS
		size := ctrlBytes
		if res.Victim.Dirty {
			k = putM
			size = dataBytes
		}
		c.s.send(c.id, c.s.tiles.Home(res.Victim.Addr), msg{
			kind: k, addr: res.Victim.Addr, src: c.id,
		}, size, true)
	}
	lat := uint64(c.s.q.Now() - c.missStart)
	c.s.coreStats.Accesses++
	c.s.coreStats.MissLatency += lat
	if lat > c.s.coreStats.MaxMissCycle {
		c.s.coreStats.MaxMissCycle = lat
	}
	if c.isUpgrade {
		c.s.coreStats.Upgrades++
	} else {
		c.s.coreStats.Misses++
	}
	c.s.completed++
	c.waiting = false
	c.s.q.After(1, c.issue)
}

// ---- directory controller ----

// txn is one in-flight directory transaction.
type txn struct {
	m           msg
	pendingAcks int
	recalled    bool
	// needData is set on an upgrade whose requester lost its copy to a
	// racing invalidation: the grant must carry the block.
	needData bool
}

// dirCtl serializes coherence transactions per block at one home slice.
type dirCtl struct {
	s     *System
	id    int
	dir   directory.Directory
	busy  map[uint64]*txn
	queue map[uint64][]msg
	// owned tracks which cache holds each block in Modified state (the
	// directory entry's owner/state field in real hardware).
	owned map[uint64]int
	// sliceFreeAt models insertion occupancy: the slice cannot start a
	// new transaction while a prior insertion's writes are in flight.
	sliceFreeAt event.Time
	stats       DirTimingStats
}

func newDirCtl(s *System, id int, dir directory.Directory) *dirCtl {
	return &dirCtl{
		s:     s,
		id:    id,
		dir:   dir,
		busy:  make(map[uint64]*txn),
		queue: make(map[uint64][]msg),
		owned: make(map[uint64]int),
	}
}

// handle processes a message delivered to this slice.
func (d *dirCtl) handle(m msg) {
	switch m.kind {
	case getS, getM:
		if _, isBusy := d.busy[m.addr]; isBusy {
			d.queue[m.addr] = append(d.queue[m.addr], m)
			return
		}
		d.start(m)
	case putS, putM:
		// Replacement notifications are processed immediately; Evict is
		// a no-op for blocks already invalidated by a racing transaction.
		d.dir.Evict(m.addr, m.src)
		if owner, ok := d.owned[m.addr]; ok && owner == m.src {
			delete(d.owned, m.addr)
		}
	case invAck:
		d.ack(m)
	case recallAck:
		t := d.busy[m.addr]
		if t == nil {
			panic("coherence: recall ack without transaction")
		}
		delete(d.owned, m.addr)
		t.recalled = true
		d.finish(t)
	default:
		panic("coherence: unexpected message at directory")
	}
}

// start opens a transaction for m — marks the block busy, counts the
// request and charges any wait for a previous insertion still occupying
// the slice — and schedules its lookup once the wait and the directory
// latency elapse. New arrivals and per-block queue restarts both come
// through here.
func (d *dirCtl) start(m msg) {
	t := &txn{m: m}
	d.busy[m.addr] = t
	d.stats.Requests++
	wait := event.Time(0)
	if d.sliceFreeAt > d.s.q.Now() {
		wait = d.sliceFreeAt - d.s.q.Now()
		d.stats.InsertWaitCycles += uint64(wait)
	}
	d.s.q.At(d.s.q.Now()+wait+d.s.cfg.DirLatency, func() { d.lookupDone(t) })
}

// lookupDone runs after the directory access latency: recall a dirty owner
// if necessary, otherwise move straight to finish.
func (d *dirCtl) lookupDone(t *txn) {
	if owner, ok := d.owned[t.m.addr]; ok && owner != t.m.src {
		d.stats.Recalls++
		d.s.send(d.id, owner, msg{kind: recall, addr: t.m.addr, src: d.id}, ctrlBytes, false)
		return // resumes at recallAck
	}
	d.finish(t)
}

// finish inspects the directory state (read-only), issues invalidations
// for a GetM, and arranges the data response. The directory MUTATION is
// deferred to respond — the moment the data message leaves — so that any
// back-invalidation a displacement chain generates for this block is
// always sent after its data on the same ordered channel, closing the
// window where a fill could survive its own entry's eviction.
func (d *dirCtl) finish(t *txn) {
	m := t.m
	hadSharers := false
	wasSharer := false
	sh, ok := d.dir.Lookup(m.addr)
	if ok && sh != 0 {
		hadSharers = true
		wasSharer = sh&(1<<uint(m.src)) != 0
	}
	// An upgrade whose requester was racily invalidated must be answered
	// with data, and the core will re-fill.
	t.needData = m.upgrade && !wasSharer

	if m.kind == getM {
		invMask := sh &^ (1 << uint(m.src))
		if invMask != 0 {
			t.pendingAcks = bits.OnesCount64(invMask)
			for mm := invMask; mm != 0; mm &= mm - 1 {
				sharer := bits.TrailingZeros64(mm)
				d.stats.Invalidations++
				d.s.send(d.id, sharer, msg{kind: inv, addr: m.addr, src: d.id}, ctrlBytes, false)
			}
			return // resumes at last invAck
		}
	}
	d.respond(t, hadSharers)
}

// ack processes one invalidation acknowledgement.
func (d *dirCtl) ack(m msg) {
	t := d.busy[m.addr]
	if t == nil {
		panic("coherence: stray invalidation ack")
	}
	t.pendingAcks--
	if t.pendingAcks == 0 {
		d.respond(t, true)
	}
}

// respond performs the directory mutation at data-send time, sends the
// data (or upgrade grant) to the requester, applies any forced evictions
// the insertion caused, and releases the block for queued transactions.
func (d *dirCtl) respond(t *txn, dataNearby bool) {
	m := t.m
	extra := event.Time(0)
	size := dataBytes
	switch {
	case m.upgrade && !t.needData:
		size = ctrlBytes // grant only, no data
	case t.recalled || dataNearby:
		// Data supplied by the recalled owner or already on chip.
	default:
		extra = d.s.cfg.MemLatency
	}
	d.s.q.After(extra, func() {
		var op directory.Op
		if m.kind == getM {
			op = d.dir.Write(m.addr, m.src)
			d.owned[m.addr] = m.src
		} else {
			op = d.dir.Read(m.addr, m.src)
		}

		// Charge insertion occupancy: the displacement writes proceed
		// after the response leaves ("long insertions can be immediately
		// prematurely terminated when a new request arrives" — we model
		// the conservative variant where the slice stays busy, and report
		// the resulting waits).
		if op.Attempts > 0 {
			busyFor := event.Time(op.Attempts) * d.s.cfg.InsertCycle
			d.stats.InsertBusyCycles += uint64(busyFor)
			if free := d.s.q.Now() + busyFor; free > d.sliceFreeAt {
				d.sliceFreeAt = free
			}
		}

		// Data first, then any back-invalidations: a forced victim's data
		// (including this very block, when its own insertion failed) was
		// necessarily sent earlier on the same ordered channel, so the
		// back-invalidation always lands after the fill.
		d.s.send(d.id, m.src, msg{kind: data, addr: m.addr, src: d.id}, size, false)
		d.applyForced(op)

		delete(d.busy, m.addr)
		if q := d.queue[m.addr]; len(q) > 0 {
			next := q[0]
			if len(q) == 1 {
				delete(d.queue, m.addr)
			} else {
				d.queue[m.addr] = q[1:]
			}
			d.start(next)
		}
	})
}

// applyForced back-invalidates the victims of directory-forced evictions.
// Called at data-send time (see respond), so every victim's own data
// response predates the back-invalidation on its ordered channel.
func (d *dirCtl) applyForced(op directory.Op) {
	for _, f := range op.Forced {
		delete(d.owned, f.Addr)
		for mm := f.Sharers; mm != 0; mm &= mm - 1 {
			sharer := bits.TrailingZeros64(mm)
			d.stats.ForcedInvalidations++
			// Fire-and-forget back-invalidation; the cache drops its copy
			// on delivery (no ack needed for correctness in this model).
			addr := f.Addr
			d.s.mesh.Send(d.id, sharer, ctrlBytes, func() {
				d.s.tiles.Caches[sharer].Remove(addr)
			})
		}
	}
}
