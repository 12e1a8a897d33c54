// Package fanout hedges one idempotent operation across interchangeable
// replicas: the client uses it when a party of a PIR deployment runs
// more than one replica, so the party's answer costs its fastest
// replica, not its primary. The wire fan-out itself runs on the
// caller's goroutine and needs nothing from this package.
package fanout

import (
	"context"
	"errors"
	"time"
)

// ErrHedgeLost is the cancellation cause handed to attempts that lose
// the hedge race: the winner's result was returned and the losers'
// contexts were cancelled with this cause.
var ErrHedgeLost = errors.New("fanout: attempt lost the hedge race")

// Hedge runs up to n attempts of one idempotent operation against
// interchangeable replicas, fastest-first: attempt 0 starts immediately,
// and each further attempt starts when delay elapses without a winner —
// or immediately when an outstanding attempt fails, so a dead replica
// costs no waiting at all. The first success wins: its value and attempt
// index are returned and the context handed to every other attempt is
// cancelled. When all n attempts fail, Hedge reports the first failure
// (later failures are usually cascading noise).
//
// A delay ≤ 0 launches every attempt at once (pure racing). Attempts
// must observe their context for loser cancellation to have teeth. A
// loser's PIR exchange is abandoned, not torn down: its connection's
// next reader drops the reply, so the price of hedging is the losers'
// duplicate work, never a redial and never a wrong answer.
//
// A loser's context is cancelled with ErrHedgeLost as the cause, so an
// attempt (or its tracing) can distinguish losing the race from the
// caller's own cancellation via context.Cause.
func Hedge[T any](ctx context.Context, n int, delay time.Duration, attempt func(ctx context.Context, i int) (T, error)) (T, int, error) {
	var zero T
	if n < 1 {
		return zero, 0, errors.New("fanout: hedge needs at least one attempt")
	}
	actx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)

	type result struct {
		i   int
		val T
		err error
	}
	results := make(chan result, n)
	launch := func(i int) {
		go func() {
			v, err := attempt(actx, i)
			results <- result{i, v, err}
		}()
	}

	launched, outstanding := 1, 1
	launch(0)
	if delay <= 0 {
		for launched < n {
			launch(launched)
			launched++
			outstanding++
		}
	}

	var timer *time.Timer
	var timerC <-chan time.Time
	if launched < n {
		timer = time.NewTimer(delay)
		defer timer.Stop()
		timerC = timer.C
	}
	// disarm stops the timer and drains a tick that already fired into
	// its channel — without the drain, the Reset in armNext would leave
	// that stale tick queued and the next select would launch a hedge
	// immediately instead of after the delay (Go < 1.23 semantics; this
	// module targets 1.22).
	disarm := func() {
		if timer != nil && !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timerC = nil
	}
	armNext := func() {
		if launched >= n {
			timerC = nil
			return
		}
		timer.Reset(delay)
		timerC = timer.C
	}

	var firstErr error
	for {
		select {
		case <-ctx.Done():
			return zero, 0, context.Cause(ctx)
		case <-timerC:
			timerC = nil // tick consumed; the channel is drained
			launch(launched)
			launched++
			outstanding++
			armNext()
		case r := <-results:
			if r.err == nil {
				cancel(ErrHedgeLost)
				return r.val, r.i, nil
			}
			if firstErr == nil {
				firstErr = r.err
			}
			outstanding--
			if launched < n {
				// A failed attempt frees its hedge slot immediately —
				// waiting out the delay would only add the failure's
				// latency to the next replica's.
				disarm()
				launch(launched)
				launched++
				outstanding++
				armNext()
			} else if outstanding == 0 {
				return zero, 0, firstErr
			}
		}
	}
}
