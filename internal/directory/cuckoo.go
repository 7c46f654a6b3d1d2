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
func (c *Cuckoo) Read(addr uint64, cache int) (op Op) {
	f := c.d.Read(addr, cache)
	setCuckooOp(&op, 0, f, c.d.LastAttempts())
	return op
}

// Write implements Directory.
func (c *Cuckoo) Write(addr uint64, cache int) (op Op) {
	inv, f := c.d.Write(addr, cache)
	setCuckooOp(&op, inv, f, c.d.LastAttempts())
	return op
}

// setCuckooOp writes into *op, field by field and over whatever it
// held, the Op of a core.Directory Read or Write that returned the
// invalidate mask inv and the forced eviction f after attempts
// insertion writes.
func setCuckooOp(op *Op, inv uint64, f *Forced, attempts int) {
	op.Invalidate, op.Attempts, op.Forced = inv, attempts, nil
	if f != nil {
		op.Forced = forcedList(f)
	}
}

// forcedList is the Op.Forced of one forced eviction: a slice, so the
// one allocation an Op carries, kept out of line off the typed loop.
//
//cuckoo:cold
//go:noinline
func forcedList(f *Forced) []Forced { return []Forced{*f} }

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
