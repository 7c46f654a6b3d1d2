//go:build amd64 || arm64

package core

import "unsafe"

// prefetch4 starts the L1 fills of the lines holding p0..p3 and returns
// without waiting: PREFETCHT0 on amd64, PRFM PLDL1KEEP on arm64.
//
//cuckoo:hotpath
//go:noescape
func prefetch4(p0, p1, p2, p3 unsafe.Pointer)
