// Engine: drive a sharded Cuckoo directory through the asynchronous
// submission engine — queue directory work from many producers, collect
// results via tickets and callbacks, observe backpressure, then flush
// and audit. This is the paper's §4.2 structure as an API: requests
// queue at a home slice and drain off the caller's critical path.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sync"
	"sync/atomic"

	"cuckoodir"
)

// blockAddr scatters dense indexes across the address space (see
// examples/sharded for why).
func blockAddr(state uint64) uint64 {
	return (state % (1 << 14)) * 2654435761
}

func main() {
	dir, err := cuckoodir.BuildSharded(cuckoodir.Spec{
		Org:       cuckoodir.OrgCuckoo,
		NumCaches: 32,
		Geometry:  cuckoodir.Geometry{Ways: 4, Sets: 512},
	}, 16)
	if err != nil {
		log.Fatal(err)
	}

	// One drainer per shard, bounded queues, blocking backpressure.
	eng, err := cuckoodir.NewEngine(dir, cuckoodir.EngineOptions{QueueDepth: 128})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("engine over %s: %d drainers, queue depth %d, policy %s\n",
		dir.Name(), eng.Options().Drainers, eng.Options().QueueDepth, eng.Options().Policy)
	ctx := context.Background()

	// Every submission is one EngineRequest; by default Submit returns a
	// pollable ticket carrying the Ops.
	tk, err := eng.Submit(ctx, cuckoodir.EngineRequest{
		Accesses: []cuckoodir.Access{{Kind: cuckoodir.AccessWrite, Addr: blockAddr(1), Cache: 3}},
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := tk.Wait(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("single write: %d insertion attempts, invalidate mask %#x\n",
		tk.Op().Attempts, tk.Op().Invalidate)

	// A batch: one ticket covers it (SubmitBatch is the shorthand for a
	// ticketed Foreground request); Ops come back in submission order even
	// though the engine fans the batch out to per-shard queues.
	batch := make([]cuckoodir.Access, 2048)
	state := uint64(42)
	for i := range batch {
		state = state*6364136223846793005 + 1442695040888963407
		kind := cuckoodir.AccessRead
		if state>>63 == 1 {
			kind = cuckoodir.AccessWrite
		}
		batch[i] = cuckoodir.Access{Kind: kind, Addr: blockAddr(state), Cache: int(state>>32) & 31}
	}
	btk, err := eng.SubmitBatch(ctx, batch)
	if err != nil {
		log.Fatal(err)
	}
	if err := btk.Wait(ctx); err != nil {
		log.Fatal(err)
	}
	invals := 0
	for _, op := range btk.Ops() {
		if op.Invalidate != 0 {
			invals++
		}
	}
	fmt.Printf("batch: %d accesses -> %d ops, %d with invalidations\n",
		len(batch), len(btk.Ops()), invals)

	// Many producers, fire-and-forget (Detached), with a Done callback
	// every so often. Producers never touch a shard lock — they queue work
	// and move on; the engine's drainers apply it shard-affinely.
	const producers = 8
	const batchesPerProducer = 64
	var delivered atomic.Uint64
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			state := uint64(p)*0x9e3779b97f4a7c15 + 7
			buf := make([]cuckoodir.Access, 256)
			for b := 0; b < batchesPerProducer; b++ {
				for i := range buf {
					state = state*6364136223846793005 + 1442695040888963407
					buf[i] = cuckoodir.Access{Kind: cuckoodir.AccessRead, Addr: blockAddr(state), Cache: int(state>>32) & 31}
				}
				// A detached batch is copied on submit, so buf is reusable at
				// once; a callback request retains its batch until done.
				req := cuckoodir.EngineRequest{Accesses: buf, Detached: true}
				if b%16 == 0 {
					req = cuckoodir.EngineRequest{
						Accesses: append([]cuckoodir.Access(nil), buf...),
						Done:     func(ops []cuckoodir.Op, _ error) { delivered.Add(uint64(len(ops))) },
					}
				}
				if _, err := eng.Submit(ctx, req); err != nil {
					log.Fatal(err)
				}
			}
		}(p)
	}
	wg.Wait()

	// Flush: a barrier through every queue — everything submitted above
	// is applied when it returns.
	if err := eng.Flush(ctx); err != nil {
		log.Fatal(err)
	}
	st := eng.Stats()
	fmt.Printf("flushed: %d accesses submitted, %d applied, %d callback ops delivered\n",
		st.SubmittedAccesses, st.CompletedAccesses, delivered.Load())

	if err := eng.Close(); err != nil {
		log.Fatal(err)
	}
	if _, err := eng.SubmitBatch(ctx, []cuckoodir.Access{{}}); !errors.Is(err, cuckoodir.ErrEngineClosed) {
		log.Fatalf("submit after close: %v", err)
	}

	// The directory remains usable after the engine closes; audit it.
	tracked := 0
	dir.ForEach(func(addr, sharers uint64) bool {
		if sharers == 0 {
			log.Fatalf("block %#x tracked with no sharers", addr)
		}
		tracked++
		return true
	})
	fmt.Printf("audit OK: %d blocks tracked, occupancy %.1f%%, %d directory events\n",
		tracked, float64(dir.Len())/float64(dir.Capacity())*100, dir.Stats().Events.Total())
}
