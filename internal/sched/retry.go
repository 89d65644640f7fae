package sched

import (
	"context"
	"errors"
	"math"
	"strconv"
	"time"

	"github.com/gamma-suite/gamma/internal/rng"
)

// RetryPolicy describes deterministic retry with exponential backoff and
// jitter. Every delay is drawn from an rng stream keyed by the unit ID and
// attempt number under the scheduler seed, so two runs of the same campaign
// wait identical (virtual) durations regardless of worker count.
//
// The zero value means a single attempt with no backoff.
type RetryPolicy struct {
	// MaxAttempts bounds total attempts per unit (not retries); <= 0
	// means one attempt, i.e. no retry.
	MaxAttempts int `json:"max_attempts,omitempty"`
	// BaseDelay is the backoff before the second attempt; 0 retries
	// immediately (useful under simulated time or in tests).
	BaseDelay time.Duration `json:"base_delay_ns,omitempty"`
	// MaxDelay caps the grown backoff; 0 means no cap.
	MaxDelay time.Duration `json:"max_delay_ns,omitempty"`
	// Multiplier grows the delay per retry; values < 1 default to 2.
	Multiplier float64 `json:"multiplier,omitempty"`
	// Jitter spreads each delay uniformly over [d·(1-J), d·(1+J)];
	// 0 disables jitter, values are clamped to [0, 1].
	Jitter float64 `json:"jitter,omitempty"`
}

func (p RetryPolicy) attempts() int {
	if p.MaxAttempts <= 0 {
		return 1
	}
	return p.MaxAttempts
}

// Delay returns the backoff to wait after the given failed attempt
// (1-based) of the unit. It is a pure function of (seed, id, attempt):
// the jitter draw is keyed, never taken from a shared stream.
func (p RetryPolicy) Delay(seed uint64, id string, attempt int) time.Duration {
	if p.BaseDelay <= 0 {
		return 0
	}
	mult := p.Multiplier
	if mult < 1 {
		mult = 2
	}
	d := float64(p.BaseDelay) * math.Pow(mult, float64(attempt-1))
	if p.MaxDelay > 0 && d > float64(p.MaxDelay) {
		d = float64(p.MaxDelay)
	}
	if j := min(max(p.Jitter, 0), 1); j > 0 {
		r := rng.New(seed, "sched-backoff", id, strconv.Itoa(attempt))
		d *= 1 - j + 2*j*r.Float64()
	}
	return time.Duration(d)
}

// permanentError marks an error as non-retryable while leaving its text
// unchanged, so recorded error strings are identical whether or not a
// retry policy was in force.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent marks err as terminal: the scheduler reports it without
// retrying. Use it for outcomes that are answers, not failures (NXDOMAIN),
// and for errors no retry can fix (bad configuration).
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// IsPermanent reports whether err was marked with Permanent.
func IsPermanent(err error) bool {
	var p *permanentError
	return errors.As(err, &p)
}

// retryable reports whether the scheduler should try again after err.
// Context cancellation and Permanent-marked errors are terminal;
// everything else — including attempt timeouts — is presumed transient.
func retryable(err error) bool {
	return !IsPermanent(err) &&
		!errors.Is(err, context.Canceled) &&
		!errors.Is(err, context.DeadlineExceeded)
}
