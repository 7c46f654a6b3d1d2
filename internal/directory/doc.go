// Package directory defines the common interface of all coherence
// directory organizations the paper evaluates (§3, §5.4) and implements
// every competitor: the Sparse directory (Gupta et al.), the
// skewed-associative directory (Seznec), the Elbow directory (Spjuth et
// al.; the three are one set-associative slice), the Duplicate-Tag
// directory (Piranha), the Tagless directory (Zebchuk et al.), the
// inclusive in-cache directory, and an ideal (unbounded, exact)
// reference. The Cuckoo directory from internal/core is adapted to the
// same interface.
//
// All organizations track sharers exactly or as supersets using uint64
// masks (at most 64 caches — the functional simulator's regime;
// compressed per-entry formats are modelled by internal/sharer and
// costed by internal/energy). They differ only in where an entry lives:
// the mask's transitions and the event counts they make are
// core.DirStats's protocol methods, which every organization calls.
//
// # Construction
//
// Everything is built from a declarative Spec through Build; BuildNamed
// resolves string-addressable organizations through the registry; and
// ShardSpec / BuildSharded wrap any spec in the concurrency-safe
// ShardedDirectory front-end. See DESIGN.md for the architecture tour.
//
// # Registry name grammar
//
// A registry name is either a registered name (Names lists them) or a
// parametric form parsed on demand:
//
//	org-WxS forms (ways x sets, per-organization meaning in Geometry):
//	    cuckoo-4x512   sparse-8x2048   skewed-4x1024   elbow-4x1024
//	    dup-tag-16x1024
//	tagless-SxBxK (grid rows x bucket bits x probe hashes):
//	    tagless-1024x32x2
//	capacity forms:
//	    in-cache-16384   ideal   ideal-2048
//	sharded forms (a concurrency-safe front-end around any inner name):
//	    sharded-8(cuckoo-4x512)
//	    sharded-8@interleave(sparse-8x2048)
//	    sharded-8^grow=0.85x2(cuckoo-4x512)
//
// "skew-" and "dup-" abbreviate "skewed-" and "dup-tag-". The sharded
// form's optional "@mix" / "@interleave" selects the shard home
// function (Home); the geometry inside the parentheses describes ONE
// shard, so "sharded-8(cuckoo-4x512)" has 8 x 2048 entry slots. The
// optional "^grow=LOAD[xFACTOR]" attaches an automatic online-resize
// policy (ResizePolicy): a shard reaching the LOAD load factor is grown
// FACTOR-fold (default 2) by a live incremental rehash (see resize.go
// and DESIGN.md §11).
// Spec.String renders the same grammar back, making names round-trip.
package directory
