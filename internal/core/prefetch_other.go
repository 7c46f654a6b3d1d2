//go:build !amd64 && !arm64

package core

import "unsafe"

// prefetch4 does nothing here: a prefetch is only a hint.
func prefetch4(p0, p1, p2, p3 unsafe.Pointer) {}
