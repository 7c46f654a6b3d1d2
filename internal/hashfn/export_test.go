package hashfn

import (
	"reflect"
	"unsafe"
)

// TableAddr returns the address of ix's skew table, or 0 when ix runs
// without one.
func TableAddr(ix *Indexer) uintptr { return uintptr(unsafe.Pointer(ix.tab)) }

// TableType is the type of a pointer to a skew table.
var TableType = reflect.TypeOf((*skewTable)(nil))
