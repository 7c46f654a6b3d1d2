package engine

import (
	"time"

	"cuckoodir/internal/qos"
)

// DefaultStallThreshold is the watchdog's no-progress bound when
// Options leaves StallThreshold zero: a drainer with queued work and a
// frozen heartbeat for longer than this is reported Stalled.
const DefaultStallThreshold = time.Second

// DrainerHealth is one drainer's row in a Health snapshot.
type DrainerHealth struct {
	// Queue is the drainer/queue index.
	Queue int
	// Depth is the drainer's outstanding request count at snapshot time,
	// summed over its per-class rings.
	Depth int
	// ClassDepth splits Depth by priority class.
	ClassDepth [qos.NumClasses]int
	// Beats is the drainer's heartbeat counter (one per wake-up).
	Beats uint64
	// LastProgress is the watchdog's most recent observation of the
	// heartbeat advancing (or the queue being empty). It is the zero
	// time until the watchdog's first tick, and stops updating when the
	// watchdog is disabled (StallThreshold < 0).
	LastProgress time.Time
	// Stalled reports that the drainer held queued work without a
	// heartbeat for longer than the stall threshold.
	Stalled bool
}

// Health is a point-in-time view of the engine's degraded-mode state:
// what a load balancer (or an operator) needs to decide whether this
// engine should keep taking traffic. See DESIGN.md §12.
type Health struct {
	// Degraded reports that at least one drainer is stalled or at least
	// one shard is quarantined. It clears when a stall recovers;
	// quarantine is terminal for the engine's lifetime.
	Degraded bool
	// Drainers holds one row per drainer queue.
	Drainers []DrainerHealth
	// QuarantinedShards lists the shards the engine poisoned after
	// containing a panic, ascending (Stats.ContainedPanics counts them).
	QuarantinedShards []int
	// LastGrowError is the most recent automatic-growth failure (nil if
	// growth never failed). Stats.GrowFailures counts how often; this
	// keeps why.
	LastGrowError error
}

// Health returns the engine's current health snapshot. It is safe to
// call concurrently with submissions and after Close. Class latency is
// in Stats (Stats.Classes[c].Latency).
func (e *Engine) Health() Health {
	h := Health{Drainers: make([]DrainerHealth, len(e.queues))}
	e.healthMu.Lock()
	for i := range h.Drainers {
		d := DrainerHealth{
			Queue:        i,
			Beats:        e.beats[i].Load(),
			LastProgress: e.obs[i].lastProgress,
			Stalled:      e.obs[i].stalled,
		}
		for c := 0; c < qos.NumClasses; c++ {
			d.ClassDepth[c] = int(e.depth[di(i, qos.Class(c))].Load())
			d.Depth += d.ClassDepth[c]
		}
		h.Drainers[i] = d
		h.Degraded = h.Degraded || d.Stalled
	}
	e.healthMu.Unlock()
	for s := range e.quar {
		if e.quar[s].Load() {
			h.QuarantinedShards = append(h.QuarantinedShards, s)
		}
	}
	if v := e.lastGrow.Load(); v != nil {
		h.LastGrowError = v.(error)
	}
	h.Degraded = h.Degraded || len(h.QuarantinedShards) > 0
	return h
}

// drainerObs is the watchdog's per-drainer observation, guarded by
// healthMu.
type drainerObs struct {
	lastProgress time.Time
	stalled      bool
}

// watchdog is the engine's liveness monitor: it samples every drainer's
// heartbeat a few times per stall threshold and flags a drainer stalled
// when its beat freezes while its queue holds work — flipping Health to
// Degraded instead of letting a wedged drainer hang its clients
// opaquely. An idle drainer (empty queue) is healthy by definition; a
// recovered drainer clears its flag on the next tick. The goroutine
// exits when Close releases the stop channel.
func (e *Engine) watchdog() {
	defer e.wg.Done()
	threshold := e.opt.StallThreshold
	interval := threshold / 4
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	if interval > 250*time.Millisecond {
		interval = 250 * time.Millisecond
	}
	last := make([]uint64, len(e.beats))
	now := time.Now()
	e.healthMu.Lock()
	for i := range e.obs {
		e.obs[i].lastProgress = now
	}
	e.healthMu.Unlock()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-e.stopc:
			return
		case <-ticker.C:
		}
		now := time.Now()
		e.healthMu.Lock()
		for i := range e.beats {
			if b := e.beats[i].Load(); b != last[i] || e.drainerDepth(i) == 0 {
				last[i] = b
				e.obs[i].lastProgress = now
				e.obs[i].stalled = false
				continue
			}
			if now.Sub(e.obs[i].lastProgress) > threshold {
				e.obs[i].stalled = true
			}
		}
		e.healthMu.Unlock()
	}
}
