package core

import (
	"math/bits"

	"cuckoodir/internal/hashfn"
)

// refTable is the differential tests' reference cuckoo table: the
// bucketized insertion procedure of §4.2 over an interleaved slot layout
// with a valid flag per slot. Every set index is computed per way
// through the Family interface (hashfn.Index), and a full bucket gives
// up the slot at rot % BucketSize. It shares no layout, probe or index
// code with Table (IndexAll, Reindex), so agreement between the two
// checks both.
type refTable struct {
	cfg     Config
	mask    uint64
	slots   []refSlot
	used    int
	nextWay int
	rot     int
	stash   []Entry[uint64]
}

type refSlot struct {
	key   uint64
	val   uint64
	valid bool
}

func newRefTable(cfg Config) *refTable {
	cfg = cfg.normalize()
	r := &refTable{
		cfg:   cfg,
		mask:  uint64(cfg.SetsPerWay - 1),
		slots: make([]refSlot, cfg.Ways*cfg.SetsPerWay*cfg.BucketSize),
	}
	if cfg.StashSize > 0 {
		r.stash = make([]Entry[uint64], 0, cfg.StashSize)
	}
	return r
}

// bucket returns the first slot of key's bucket in way w.
func (r *refTable) bucket(w int, key uint64) int {
	set := int(hashfn.Index(r.cfg.Hash, w, key, r.mask))
	return (w*r.cfg.SetsPerWay + set) * r.cfg.BucketSize
}

func (r *refTable) Len() int      { return r.used }
func (r *refTable) StashLen() int { return len(r.stash) }

func (r *refTable) Find(key uint64) *uint64 {
	for w := 0; w < r.cfg.Ways; w++ {
		base := r.bucket(w, key)
		for b := 0; b < r.cfg.BucketSize; b++ {
			if s := &r.slots[base+b]; s.valid && s.key == key {
				return &s.val
			}
		}
	}
	for i := range r.stash {
		if r.stash[i].Key == key {
			return &r.stash[i].Val
		}
	}
	return nil
}

func (r *refTable) Insert(key, val uint64) Result[uint64] {
	ways := r.cfg.Ways
	// Lookup pass from nextWay: the key, or the first vacant slot.
	vacantWay, vacantSlot := -1, -1
	w := r.nextWay
	for i := 0; i < ways; i++ {
		base := r.bucket(w, key)
		for b := 0; b < r.cfg.BucketSize; b++ {
			s := &r.slots[base+b]
			if s.valid && s.key == key {
				s.val = val
				return Result[uint64]{Present: true}
			}
			if !s.valid && vacantWay == -1 {
				vacantWay, vacantSlot = w, base+b
			}
		}
		w = (w + 1) % ways
	}
	for i := range r.stash {
		if r.stash[i].Key == key {
			r.stash[i].Val = val
			return Result[uint64]{Present: true}
		}
	}
	if vacantWay != -1 {
		r.slots[vacantSlot] = refSlot{key: key, val: val, valid: true}
		r.used++
		r.nextWay = vacantWay
		return Result[uint64]{Attempts: 1}
	}

	// Displacement loop.
	cur := Entry[uint64]{Key: key, Val: val}
	w = r.nextWay
	for attempt := 1; ; attempt++ {
		base := r.bucket(w, cur.Key)
		for b := 0; b < r.cfg.BucketSize; b++ {
			if s := &r.slots[base+b]; !s.valid {
				*s = refSlot{key: cur.Key, val: cur.Val, valid: true}
				r.used++
				r.nextWay = w
				return Result[uint64]{Attempts: attempt}
			}
		}
		if attempt == r.cfg.MaxAttempts {
			r.nextWay = w
			if len(r.stash) < cap(r.stash) {
				r.stash = append(r.stash, cur)
				return Result[uint64]{Attempts: attempt, Stashed: true}
			}
			victim := cur
			return Result[uint64]{Attempts: attempt, Evicted: &victim}
		}
		vs := &r.slots[base+r.rot%r.cfg.BucketSize]
		r.rot++
		cur, vs.key, vs.val = Entry[uint64]{Key: vs.key, Val: vs.val}, cur.Key, cur.Val
		w = (w + 1) % ways
	}
}

func (r *refTable) Delete(key uint64) bool {
	for w := 0; w < r.cfg.Ways; w++ {
		base := r.bucket(w, key)
		for b := 0; b < r.cfg.BucketSize; b++ {
			if s := &r.slots[base+b]; s.valid && s.key == key {
				*s = refSlot{}
				r.used--
				r.drainStashInto(base + b)
				return true
			}
		}
	}
	for i := range r.stash {
		if r.stash[i].Key == key {
			r.stash[i] = r.stash[len(r.stash)-1]
			r.stash = r.stash[:len(r.stash)-1]
			return true
		}
	}
	return false
}

// drainStashInto moves the first stash entry that hashes to the freed
// slot back into the table.
func (r *refTable) drainStashInto(slot int) {
	way := slot / (r.cfg.SetsPerWay * r.cfg.BucketSize)
	for i, e := range r.stash {
		if r.bucket(way, e.Key) == slot-slot%r.cfg.BucketSize {
			r.slots[slot] = refSlot{key: e.Key, val: e.Val, valid: true}
			r.used++
			r.stash[i] = r.stash[len(r.stash)-1]
			r.stash = r.stash[:len(r.stash)-1]
			return
		}
	}
}

func (r *refTable) ForEach(fn func(Entry[uint64]) bool) {
	for _, s := range r.slots {
		if s.valid && !fn(Entry[uint64]{Key: s.key, Val: s.val}) {
			return
		}
	}
	for _, e := range r.stash {
		if !fn(e) {
			return
		}
	}
}

// refDirectory is the directory-level reference: Directory's Read,
// Write and Evict over a refTable, which hashes the address on every
// table call, where Directory hands the lookup's indices on to the
// insert or delete that follows it.
type refDirectory struct {
	t     *refTable
	last  int
	stats *DirStats
}

func newRefDirectory(cfg Config) *refDirectory {
	t := newRefTable(cfg)
	return &refDirectory{t: t, stats: NewDirStats(t.cfg.MaxAttempts)}
}

func (d *refDirectory) insert(addr, mask uint64) *Forced {
	res := d.t.Insert(addr, mask)
	d.stats.Events.Inc(EvInsertTag)
	d.stats.Attempts.Add(res.Attempts)
	d.last = res.Attempts
	if res.Evicted == nil {
		return nil
	}
	d.stats.ForcedEvictions++
	d.stats.ForcedBlocks += uint64(bits.OnesCount64(res.Evicted.Val))
	return &Forced{Addr: res.Evicted.Key, Sharers: res.Evicted.Val}
}

func (d *refDirectory) Read(addr uint64, cache int) *Forced {
	d.last = 0
	bit := uint64(1) << uint(cache)
	if p := d.t.Find(addr); p != nil {
		if *p&bit == 0 {
			*p |= bit
			d.stats.Events.Inc(EvAddSharer)
		}
		return nil
	}
	return d.insert(addr, bit)
}

func (d *refDirectory) Write(addr uint64, cache int) (uint64, *Forced) {
	d.last = 0
	bit := uint64(1) << uint(cache)
	if p := d.t.Find(addr); p != nil {
		inv := *p &^ bit
		if inv != 0 {
			d.stats.Events.Inc(EvInvalidate)
		} else if *p&bit == 0 {
			d.stats.Events.Inc(EvAddSharer)
		}
		*p = bit
		return inv, nil
	}
	return 0, d.insert(addr, bit)
}

func (d *refDirectory) Evict(addr uint64, cache int) {
	bit := uint64(1) << uint(cache)
	p := d.t.Find(addr)
	if p == nil || *p&bit == 0 {
		return
	}
	*p &^= bit
	d.stats.Events.Inc(EvRemoveSharer)
	if *p == 0 {
		d.t.Delete(addr)
		d.stats.Events.Inc(EvRemoveTag)
	}
}
