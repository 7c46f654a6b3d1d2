// Protocol: run the event-driven MESI directory protocol on a 16-core
// mesh with a Cuckoo directory, verify coherence at the end, and report
// the timing quantities behind §4.2's "insertions off the critical path"
// claim.
package main

import (
	"fmt"
	"log"

	"cuckoodir"
)

func main() {
	prof, err := cuckoodir.WorkloadByName("apache")
	if err != nil {
		log.Fatal(err)
	}
	cfg := cuckoodir.DefaultProtocolConfig()
	sys, err := cuckoodir.NewProtocolSystem(cfg, prof, 42, cuckoodir.ChosenCuckooSize(cuckoodir.PrivateL2).Spec())
	if err != nil {
		log.Fatal(err)
	}

	const warm, measure = 300_000, 300_000
	sys.Run(warm)
	sys.ResetStats()
	end := sys.Run(measure)

	cs := sys.CoreStats()
	ds := sys.DirStats()
	ms := sys.MeshStats()
	fmt.Printf("simulated %d accesses in %d cycles (%.2f accesses/cycle across 16 cores)\n",
		cs.Accesses, end, float64(cs.Accesses)/float64(end))
	fmt.Printf("hits %d, misses %d, upgrades %d\n", cs.Hits, cs.Misses, cs.Upgrades)
	fmt.Printf("avg miss latency: %.1f cycles (max %d)\n", sys.AvgMissLatency(), cs.MaxMissCycle)
	fmt.Printf("protocol: %d recalls, %d invalidations, %d forced invalidations\n",
		ds.Recalls, ds.Invalidations, ds.ForcedInvalidations)
	fmt.Printf("mesh: %d messages, %d hops, %d bytes\n", ms.Messages, ms.Hops, ms.Bytes)

	perReq := float64(ds.InsertWaitCycles) / float64(ds.Requests)
	fmt.Printf("cuckoo insertion occupancy: %d cycles total; wait imposed on requests: %.4f cycles each (%.4f%% of miss latency)\n",
		ds.InsertBusyCycles, perReq, perReq/sys.AvgMissLatency()*100)

	// Every cached block must be tracked by its home slice, and every
	// tracked sharer must hold the block.
	sys.Drain()
	if err := sys.CheckConsistency(); err != nil {
		log.Fatalf("coherence violated: %v", err)
	}
	fmt.Println("coherence audit: OK (caches and directory agree)")
}
