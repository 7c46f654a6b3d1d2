package cuckoodir_test

import (
	"fmt"

	"cuckoodir"
)

// ExampleBuildNamed builds one Cuckoo directory slice by registry name —
// the slice Build(Spec{Org: OrgCuckoo, Geometry: Geometry{Ways: 4,
// Sets: 64}}) would construct — and drives it with the coherence events
// of two caches sharing a block.
func ExampleBuildNamed() {
	dir, err := cuckoodir.BuildNamed("cuckoo-4x64", 8)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s slice: %d entries\n", dir.Name(), dir.Capacity())

	dir.Read(0x1000, 2)        // cache 2 fills the block
	dir.Read(0x1000, 5)        // cache 5 joins as a sharer
	op := dir.Write(0x1000, 2) // cache 2 writes
	fmt.Printf("invalidate mask: %#x\n", op.Invalidate)

	dir.Evict(0x1000, 2) // last sharer leaves; entry is freed
	_, tracked := dir.Lookup(0x1000)
	fmt.Printf("still tracked: %v\n", tracked)
	// Output:
	// cuckoo slice: 256 entries
	// invalidate mask: 0x20
	// still tracked: false
}

// ExampleNewCuckooTable shows the raw d-ary cuckoo hash table: Figure 5's
// displacement behaviour with a conflict group larger than one way.
func ExampleNewCuckooTable() {
	t, err := cuckoodir.NewCuckooTable[string](cuckoodir.TableConfig{
		Ways:       4,
		SetsPerWay: 64,
	})
	if err != nil {
		panic(err)
	}
	for i := 0; i < 100; i++ {
		t.Insert(uint64(i)*977, fmt.Sprint(i))
	}
	fmt.Printf("entries: %d, occupancy: %.2f\n", t.Len(), t.Occupancy())
	if v := t.Find(977 * 42); v != nil {
		fmt.Printf("key 42 -> %s\n", *v)
	}
	// Output:
	// entries: 100, occupancy: 0.39
	// key 42 -> 42
}

// ExampleRunExperiment regenerates Table 1 through the experiment harness.
func ExampleRunExperiment() {
	tables, err := cuckoodir.RunExperiment("table1", cuckoodir.ExperimentOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Println(tables[0].Cell(0, 0), "=", tables[0].Cell(0, 1))
	// Output:
	// CMP size = 16 cores
}
