package directory

import "cuckoodir/internal/core"

// Cuckoo adapts the core Cuckoo directory (the paper's contribution) to
// the common Directory interface.
type Cuckoo struct {
	d *core.Directory
}

// NewCuckoo builds a Cuckoo directory slice.
func NewCuckoo(cfg core.DirConfig) *Cuckoo {
	return &Cuckoo{d: core.NewDirectory(cfg)}
}

// Name implements Directory.
func (c *Cuckoo) Name() string { return "cuckoo" }

// NumCaches implements Directory.
func (c *Cuckoo) NumCaches() int { return c.d.NumCaches() }

// Read implements Directory.
func (c *Cuckoo) Read(addr uint64, cache int) Op {
	f := c.d.Read(addr, cache)
	return cuckooOp(0, f, c.d.LastAttempts())
}

// Write implements Directory.
func (c *Cuckoo) Write(addr uint64, cache int) Op {
	inv, f := c.d.Write(addr, cache)
	return cuckooOp(inv, f, c.d.LastAttempts())
}

// cuckooOp is the Op of a core.Directory Read or Write that returned
// the invalidate mask inv and the forced eviction f after attempts
// insertion writes. Op.Forced is a slice, so a forced eviction
// allocates.
func cuckooOp(inv uint64, f *Forced, attempts int) Op {
	op := Op{Invalidate: inv, Attempts: attempts}
	if f != nil {
		op.Forced = append(op.Forced, *f)
	}
	return op
}

// Evict implements Directory.
func (c *Cuckoo) Evict(addr uint64, cache int) { c.d.Evict(addr, cache) }

// Lookup implements Directory.
func (c *Cuckoo) Lookup(addr uint64) (uint64, bool) { return c.d.Lookup(addr) }

// Stats implements Directory.
func (c *Cuckoo) Stats() *Stats { return c.d.Stats() }

// ResetStats implements Directory.
func (c *Cuckoo) ResetStats() { c.d.ResetStats() }

// Capacity implements Directory.
func (c *Cuckoo) Capacity() int { return c.d.Capacity() }

// Len implements Directory.
func (c *Cuckoo) Len() int { return c.d.Len() }

// ForEach implements Directory.
func (c *Cuckoo) ForEach(fn func(addr, sharers uint64) bool) { c.d.ForEach(fn) }

var _ Directory = (*Cuckoo)(nil)
