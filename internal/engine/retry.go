package engine

import (
	"context"
	"errors"
	"time"

	"cuckoodir/internal/rng"
)

// SubmitRetry defaults, applied where RetryOptions leaves a field zero.
const (
	DefaultRetryAttempts  = 8
	DefaultRetryBaseDelay = 50 * time.Microsecond
	DefaultRetryMaxDelay  = 5 * time.Millisecond
)

// RetryOptions parameterize SubmitRetry's capped exponential backoff.
// The zero value uses the defaults above.
type RetryOptions struct {
	// Attempts bounds submission attempts, including the first.
	Attempts int
	// BaseDelay is the backoff ceiling before the second attempt; it
	// doubles per retry up to MaxDelay. The actual sleep is jittered:
	// uniform in (0, ceiling], so colliding producers decorrelate
	// instead of retrying in lockstep.
	BaseDelay time.Duration
	// MaxDelay caps the backoff ceiling.
	MaxDelay time.Duration
	// Seed seeds the jitter stream (internal/rng) — retries are as
	// reproducible as everything else in this repository.
	Seed uint64
}

func (o RetryOptions) withDefaults() RetryOptions {
	if o.Attempts <= 0 {
		o.Attempts = DefaultRetryAttempts
	}
	if o.BaseDelay <= 0 {
		o.BaseDelay = DefaultRetryBaseDelay
	}
	if o.MaxDelay <= 0 {
		o.MaxDelay = DefaultRetryMaxDelay
	}
	if o.MaxDelay < o.BaseDelay {
		o.MaxDelay = o.BaseDelay
	}
	return o
}

// SubmitRetry is Submit with capped exponential backoff plus jitter
// over ErrQueueFull — the polite RejectWhenFull client: a rejected
// request enqueues nothing (all-or-nothing), so it can be resubmitted
// verbatim after backing off. Every other error (including
// ErrDeadlineExceeded and ErrShardQuarantined — retrying those cannot
// help) returns immediately; ctx cancels a backoff sleep, and a sleep
// is capped at the ctx deadline so an almost-expired deadline is never
// overshot — the expiry surfaces as ErrDeadlineExceeded through the
// next attempt's pre-enqueue shed check, consistently with every other
// shed. The last attempt's queue-full error is returned when the budget
// is exhausted. Note that retrying a Background rejection against a
// saturating engine is often the WRONG move — the engine sheds
// background first by design — but a bounded, jittered retry is still
// the polite way to probe for the load to clear.
func (e *Engine) SubmitRetry(ctx context.Context, r Request, o RetryOptions) (*Ticket, error) {
	o = o.withDefaults()
	if ctx == nil {
		ctx = context.Background()
	}
	var jitter *rng.Source
	backoff := o.BaseDelay
	for attempt := 1; ; attempt++ {
		t, err := e.Submit(ctx, r)
		if err == nil || !errors.Is(err, ErrQueueFull) || attempt >= o.Attempts {
			return t, err
		}
		if jitter == nil {
			jitter = rng.New(o.Seed)
		}
		sleep := time.Duration(jitter.Uint64()%uint64(backoff)) + 1
		// Never sleep past the ctx deadline: cap the sleep so the loop
		// wakes AT expiry, and route an already-expired deadline through
		// one more Submit — its pre-enqueue check sheds with
		// ErrDeadlineExceeded AND counts the shed (per class, in Stats),
		// so expiry reports identically whether it struck before the
		// first attempt or mid-backoff. A doomed context never burns the
		// rest of a backoff step.
		if deadline, ok := ctx.Deadline(); ok {
			if remain := time.Until(deadline); remain < sleep {
				sleep = remain
			}
			if sleep <= 0 {
				continue
			}
		}
		timer := time.NewTimer(sleep)
		select {
		case <-ctx.Done():
			timer.Stop()
			// Deadline expiry mid-sleep sheds via the next attempt, like
			// the cap above; plain cancellation stays ctx.Err().
			if errors.Is(ctx.Err(), context.DeadlineExceeded) {
				continue
			}
			return nil, ctx.Err()
		case <-timer.C:
		}
		if backoff < o.MaxDelay {
			backoff *= 2
			if backoff > o.MaxDelay {
				backoff = o.MaxDelay
			}
		}
	}
}
