// Ticket lifecycle tests: the three terminal states a ticket can reach
// (completed, erred, abandoned), the Done-gated accessor contract, and
// the mid-enqueue cancellation path where the engine retires a ticket
// the caller never received.

package engine

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"cuckoodir/internal/directory"
	"cuckoodir/internal/faults"
	"cuckoodir/internal/qos"
)

// TestTicketTerminalStates walks the three ways a ticket ends:
//
//   - completed: every request applied cleanly; Err is nil, the
//     callback fires with a nil error.
//   - erred: a request failed (contained panic / quarantined shard);
//     the FIRST failure is the terminal error, the callback fires with
//     it, and the failed span's Ops stay zero.
//   - abandoned: the submitter's ctx was cancelled mid-enqueue; the
//     ticket still completes (accounting must balance) but the callback
//     is suppressed — the caller already saw the ctx error.
func TestTicketTerminalStates(t *testing.T) {
	errFirst := errors.New("first failure")
	errSecond := errors.New("second failure")
	cases := []struct {
		name string
		// drive takes the ticket through its life.
		drive        func(*Ticket)
		wantErr      error
		wantCallback bool
		// callbackErr is the error the callback must observe (when it
		// fires at all).
		callbackErr error
	}{
		{
			name: "completed",
			drive: func(tk *Ticket) {
				tk.complete()
				tk.complete()
			},
			wantErr:      nil,
			wantCallback: true,
			callbackErr:  nil,
		},
		{
			name: "erred first failure wins",
			drive: func(tk *Ticket) {
				tk.fail(errFirst)
				tk.complete()
				tk.fail(errSecond)
				tk.complete()
			},
			wantErr:      errFirst,
			wantCallback: true,
			callbackErr:  errFirst,
		},
		{
			name: "abandoned",
			drive: func(tk *Ticket) {
				tk.abandoned.Store(true)
				tk.complete()
				tk.complete()
			},
			wantErr:      nil,
			wantCallback: false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var fired atomic.Int32
			var gotErr error
			tk := newTicket(2, make([]directory.Op, 2), func(_ []directory.Op, err error) {
				fired.Add(1)
				gotErr = err
			})
			select {
			case <-tk.Done():
				t.Fatal("Done closed before any request retired")
			default:
			}
			tc.drive(tk)
			select {
			case <-tk.Done():
			default:
				t.Fatal("Done not closed after every request retired")
			}
			if err := tk.Err(); !errors.Is(err, tc.wantErr) {
				t.Errorf("Err() = %v, want %v", err, tc.wantErr)
			}
			if err := tk.Wait(context.Background()); !errors.Is(err, tc.wantErr) {
				t.Errorf("Wait() = %v, want %v", err, tc.wantErr)
			}
			if got, want := fired.Load() == 1, tc.wantCallback; got != want {
				t.Errorf("callback fired=%v, want %v", got, want)
			}
			if tc.wantCallback && !errors.Is(gotErr, tc.callbackErr) {
				t.Errorf("callback error = %v, want %v", gotErr, tc.callbackErr)
			}
			if got := tk.Ops(); len(got) != 2 {
				t.Errorf("Ops() len = %d, want 2", len(got))
			}
		})
	}
}

// TestTicketAccessorsGatedOnDone: Err and Ops share the same contract —
// calling either before Done is closed is a caller bug and panics.
func TestTicketAccessorsGatedOnDone(t *testing.T) {
	tk := newTicket(1, make([]directory.Op, 1), nil)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s before Done did not panic", name)
			}
		}()
		f()
	}
	mustPanic("Err", func() { _ = tk.Err() })
	mustPanic("Ops", func() { _ = tk.Ops() })
	tk.complete()
	if err := tk.Err(); err != nil {
		t.Errorf("Err after completion = %v, want nil", err)
	}
	if ops := tk.Ops(); len(ops) != 1 {
		t.Errorf("Ops after completion len = %d, want 1", len(ops))
	}
}

// TestTicketWaitCancellation: Wait abandons only the WAIT on ctx
// cancellation — the ticket stays live and a later Wait observes the
// eventual terminal state.
func TestTicketWaitCancellation(t *testing.T) {
	tk := newTicket(1, nil, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := tk.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait with cancelled ctx = %v, want context.Canceled", err)
	}
	boom := errors.New("boom")
	tk.fail(boom)
	tk.complete()
	if err := tk.Wait(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("Wait after completion = %v, want the terminal error", err)
	}
}

// TestTicketAbandonedMidEnqueue drives the abandonment path through the
// real engine: a sender blocked on a full queue behind a stalled
// drainer is cancelled out; it sees ctx.Err, its callback NEVER fires
// (not even after the stall releases and the queue drains), while the
// independently-submitted neighbors complete normally.
func TestTicketAbandonedMidEnqueue(t *testing.T) {
	defer goroutineCensus(t)()
	dir := testDir(t, 1)
	inj := faults.New()
	stall := inj.Arm(faults.DrainerStall, faults.Trigger{Key: faults.AnyKey, Count: 1})
	eng, err := New(dir, Options{QueueDepth: 1, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()

	// Park the drainer, then fill the one-deep buffer with a tracked
	// submission.
	if err := eng.SubmitDetachedClass(ctx, qos.Foreground, randomAccesses(21, 4)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "drainer to park on the stall", func() bool {
		return inj.Fired(faults.DrainerStall) >= 1
	})
	var queuedFired atomic.Int32
	if _, err := eng.Submit(ctx, Request{Accesses: randomAccesses(22, 4), Done: func(_ []directory.Op, err error) {
		if err != nil {
			t.Errorf("queued neighbor's callback got %v", err)
		}
		queuedFired.Add(1)
	}}); err != nil {
		t.Fatal(err)
	}

	// The victim blocks on the full queue; cancel it out mid-enqueue.
	var abandonedFired atomic.Int32
	cctx, cancel := context.WithCancel(ctx)
	errc := make(chan error, 1)
	go func() {
		_, err := eng.Submit(cctx, Request{Accesses: randomAccesses(23, 4), Done: func([]directory.Op, error) {
			abandonedFired.Add(1)
		}})
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sender = %v, want context.Canceled", err)
	}

	// Recovery: the backlog drains; the queued neighbor completes, the
	// abandoned ticket's callback stays suppressed.
	stall.Release()
	if err := eng.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if queuedFired.Load() != 1 {
		t.Errorf("queued neighbor's callback fired %d times, want 1", queuedFired.Load())
	}
	if abandonedFired.Load() != 0 {
		t.Errorf("abandoned submission's callback fired %d times, want 0", abandonedFired.Load())
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
}
