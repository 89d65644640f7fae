// Package sched is the deterministic, fault-tolerant work scheduler behind
// Gamma's study campaigns. The paper's field deployment ran on flaky
// volunteer machines across 23 countries — page loads fail, probes time
// out, volunteers drop mid-run — so campaign execution needs bounded
// workers, per-unit timeouts, retry with backoff, and partial-result
// aggregation rather than all-or-nothing fan-outs.
//
// Everything stochastic is deterministic: backoff delays and jitter are
// drawn from internal/rng streams keyed by unit ID and attempt number, and
// time is an injectable Clock, so identical seeds produce byte-identical
// campaign results regardless of worker count — and tests never sleep.
//
// Pool is the only retry layer: the study campaign retries whole
// volunteers with it, and each retry resumes the volunteer's dataset. Box 2
// runs its countries through a Pool too, with one attempt each.
package sched

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Unit is one schedulable piece of work. ID must be stable across runs —
// it keys every stochastic draw (backoff jitter) the scheduler makes for
// the unit, which is what makes campaigns reproducible.
type Unit[T any] struct {
	ID  string
	Run func(ctx context.Context) (T, error)
}

// Options tunes a Pool.
type Options struct {
	// Workers bounds concurrent units; <= 0 means 1.
	Workers int
	// Timeout bounds one attempt of one unit; 0 means no bound. Expired
	// attempts count as transient failures and are retried under Retry.
	Timeout time.Duration
	// Retry is the per-unit retry policy (zero value: single attempt).
	Retry RetryPolicy
	// Seed keys the deterministic backoff jitter draws.
	Seed uint64
	// Clock paces timeouts and backoff; nil uses the wall clock.
	Clock Clock
	// FailFast cancels outstanding work (in-flight attempts via a derived
	// context, queued units by skipping them) after the first terminal
	// unit failure. Completed results are kept either way.
	FailFast bool
}

// ErrAttemptTimeout marks an attempt abandoned after Options.Timeout.
var ErrAttemptTimeout = fmt.Errorf("sched: attempt timed out")

// Outcome records how one unit fared.
type Outcome struct {
	ID       string
	Attempts int           // attempts actually made (0 when skipped)
	Latency  time.Duration // first attempt start to terminal outcome, incl. backoff
	Backoff  time.Duration // total backoff waited between attempts
	Err      error         // terminal error; nil on success
	Skipped  bool          // never attempted (pool cancelled before start)
}

// OK reports whether the unit completed successfully.
func (o Outcome) OK() bool { return !o.Skipped && o.Err == nil }

// Result pairs a unit's value with its outcome. Results are indexed like
// the submitted units, never by completion order.
type Result[T any] struct {
	Value T
	Outcome
}

// Stats is a snapshot of pool counters; safe to read while a run is in
// flight.
type Stats struct {
	Units     int // units submitted
	Succeeded int
	Failed    int // terminal failures (attempts exhausted or permanent)
	Skipped   int // never attempted due to cancellation
	Attempts  int // total attempts across all units
	Retries   int // attempts beyond each unit's first
	// TotalLatency sums per-unit latencies; TotalBackoff sums backoff
	// waits (virtual time under a fake clock).
	TotalLatency time.Duration
	TotalBackoff time.Duration
}

// Pool schedules units over a bounded worker set. A pool may run several
// batches; Stats accumulate across them.
type Pool[T any] struct {
	opts  Options
	clock Clock

	mu    sync.Mutex
	stats Stats
}

// New builds a pool. The zero Options value gives a serial, single-attempt
// scheduler on the wall clock.
func New[T any](opts Options) *Pool[T] {
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	clk := opts.Clock
	if clk == nil {
		clk = Wall()
	}
	return &Pool[T]{opts: opts, clock: clk}
}

// Stats returns a snapshot of the pool's counters.
func (p *Pool[T]) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Run schedules every unit and blocks until all have a terminal outcome
// (success, exhausted retries, or skipped after cancellation). The
// returned slice is indexed like units. The error is the parent context's
// error, if any; per-unit failures are reported in the outcomes so callers
// aggregate partial results instead of discarding completed work.
func (p *Pool[T]) Run(ctx context.Context, units []Unit[T]) ([]Result[T], error) {
	results := make([]Result[T], len(units))
	p.mu.Lock()
	p.stats.Units += len(units)
	p.mu.Unlock()

	rctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)

	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < p.opts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				results[i] = p.runUnit(rctx, units[i])
				if p.opts.FailFast && !results[i].Skipped && results[i].Err != nil {
					cancel(results[i].Err)
				}
			}
		}()
	}
	for i := range units {
		work <- i
	}
	close(work)
	wg.Wait()
	return results, ctx.Err()
}

// runUnit drives one unit to a terminal outcome.
func (p *Pool[T]) runUnit(ctx context.Context, u Unit[T]) Result[T] {
	res := Result[T]{Outcome: Outcome{ID: u.ID}}
	if ctx.Err() != nil {
		res.Skipped = true
		res.Err = ctx.Err()
		p.account(res.Outcome)
		return res
	}
	start := p.clock.Now()
	for attempt := 1; ; attempt++ {
		res.Attempts = attempt
		v, err := p.attempt(ctx, u)
		res.Err = err
		if err == nil {
			res.Value = v
			break
		}
		if !retryable(err) || attempt >= p.opts.Retry.attempts() {
			break
		}
		if d := p.opts.Retry.Delay(p.opts.Seed, u.ID, attempt); d > 0 {
			res.Backoff += d
			select {
			case <-p.clock.After(d):
			case <-ctx.Done():
				res.Err = ctx.Err()
				p.finish(&res, start)
				return res
			}
		}
	}
	p.finish(&res, start)
	return res
}

func (p *Pool[T]) finish(res *Result[T], start time.Time) {
	res.Latency = p.clock.Now().Sub(start)
	p.account(res.Outcome)
}

// attempt runs one attempt, bounded by Options.Timeout when set. On
// timeout the attempt's context is cancelled and the (abandoned) work is
// left to unwind on its own; well-behaved units honor their context.
func (p *Pool[T]) attempt(ctx context.Context, u Unit[T]) (T, error) {
	if p.opts.Timeout <= 0 {
		return u.Run(ctx)
	}
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	type outcome struct {
		v   T
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		v, err := u.Run(actx)
		done <- outcome{v, err}
	}()
	select {
	case o := <-done:
		return o.v, o.err
	case <-p.clock.After(p.opts.Timeout):
		cancel()
		var zero T
		return zero, fmt.Errorf("sched: unit %q exceeded %v: %w", u.ID, p.opts.Timeout, ErrAttemptTimeout)
	case <-ctx.Done():
		cancel()
		var zero T
		return zero, ctx.Err()
	}
}

func (p *Pool[T]) account(o Outcome) {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch {
	case o.Skipped:
		p.stats.Skipped++
	case o.Err != nil:
		p.stats.Failed++
	default:
		p.stats.Succeeded++
	}
	p.stats.Attempts += o.Attempts
	if o.Attempts > 1 {
		p.stats.Retries += o.Attempts - 1
	}
	p.stats.TotalLatency += o.Latency
	p.stats.TotalBackoff += o.Backoff
}
