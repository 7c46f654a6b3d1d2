package hashfn_test

import (
	"reflect"
	"sync"
	"testing"

	"cuckoodir/internal/directory"
	"cuckoodir/internal/hashfn"
)

// TestIndexerTableShared checks that skew indexers of one shape share one
// table whatever their way count or how their family was built, also
// when goroutines build them at once, that another shape gets another,
// and that a sharded directory of eight cuckoo-4x16384 slices holds one
// table, not eight.
func TestIndexerTableShared(t *testing.T) {
	a := hashfn.NewIndexer(hashfn.NewSkew(14), 4, 1<<14-1)
	b := hashfn.NewIndexer(hashfn.Skew{Bits: 14}, 2, 1<<14-1)
	c := hashfn.NewIndexer(hashfn.NewSkew(13), 4, 1<<13-1)
	ta := hashfn.TableAddr(&a)
	if ta == 0 || hashfn.TableAddr(&b) != ta {
		t.Fatalf("indexers of one shape: tables %#x and %#x, want one shared table", ta, hashfn.TableAddr(&b))
	}
	if hashfn.TableAddr(&c) == ta {
		t.Fatal("a 13-bit and a 14-bit skew share a table")
	}

	// A shape no other test builds (out = 5), so that the goroutines
	// race to build its table, not only to read it.
	got := make([]uintptr, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ix := hashfn.NewIndexer(hashfn.NewSkew(7), 1+g%4, 5)
			got[g] = hashfn.TableAddr(&ix)
		}(g)
	}
	wg.Wait()
	for g, addr := range got {
		if addr == 0 || addr != got[0] {
			t.Fatalf("concurrently built indexers of one shape: goroutine %d got table %#x, goroutine 0 %#x", g, addr, got[0])
		}
	}

	d, err := directory.BuildNamed("sharded-8(cuckoo-4x16384)", 16)
	if err != nil {
		t.Fatal(err)
	}
	tables := map[uintptr]bool{}
	tablesIn(reflect.ValueOf(d), map[visit]bool{}, tables)
	if len(tables) != 1 || !tables[ta] {
		t.Fatalf("sharded-8(cuckoo-4x16384) holds %d tables %v, want only the shared 14-bit table %#x", len(tables), tables, ta)
	}
}

type visit struct {
	typ  reflect.Type
	addr uintptr
}

// tablesIn adds to out the address of every skew table reachable from v
// through pointers, interfaces, structs, slices, arrays and maps.
func tablesIn(v reflect.Value, seen map[visit]bool, out map[uintptr]bool) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return
		}
		if v.Type() == hashfn.TableType {
			out[v.Pointer()] = true
			return
		}
		if k := (visit{v.Type(), v.Pointer()}); !seen[k] {
			seen[k] = true
			tablesIn(v.Elem(), seen, out)
		}
	case reflect.Interface:
		if !v.IsNil() {
			tablesIn(v.Elem(), seen, out)
		}
	case reflect.Struct:
		for i := range v.NumField() {
			tablesIn(v.Field(i), seen, out)
		}
	case reflect.Slice, reflect.Array:
		if mayHoldTable(v.Type().Elem()) {
			for i := range v.Len() {
				tablesIn(v.Index(i), seen, out)
			}
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			tablesIn(it.Value(), seen, out)
		}
	}
}

// mayHoldTable reports whether a value of type t can lead to a table,
// so the walk skips arrays of plain data such as a table's pairs.
func mayHoldTable(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.Interface, reflect.Slice, reflect.Map:
		return true
	case reflect.Array:
		return mayHoldTable(t.Elem())
	case reflect.Struct:
		for i := range t.NumField() {
			if mayHoldTable(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}
