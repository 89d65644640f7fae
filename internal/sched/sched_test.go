package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"github.com/gamma-suite/gamma/internal/rng"
)

func studyEpoch() time.Time { return time.Date(2024, 3, 16, 9, 0, 0, 0, time.UTC) }

// --- RetryPolicy ---

func TestBackoffSequenceDeterministic(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 6, BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second, Multiplier: 2, Jitter: 0.5}
	var prev []time.Duration
	for attempt := 1; attempt <= 5; attempt++ {
		d := p.Delay(42, "unit/a", attempt)
		if d2 := p.Delay(42, "unit/a", attempt); d2 != d {
			t.Fatalf("attempt %d: delay not deterministic: %v vs %v", attempt, d, d2)
		}
		base := float64(100*time.Millisecond) * float64(int(1)<<(attempt-1))
		if base > float64(time.Second) {
			base = float64(time.Second)
		}
		lo, hi := time.Duration(base*0.5), time.Duration(base*1.5)
		if d < lo || d > hi {
			t.Errorf("attempt %d: delay %v outside jitter window [%v, %v]", attempt, d, lo, hi)
		}
		prev = append(prev, d)
	}
	// Different unit IDs and different seeds draw different jitter.
	if p.Delay(42, "unit/b", 1) == prev[0] && p.Delay(42, "unit/b", 2) == prev[1] {
		t.Error("distinct unit IDs should draw distinct jitter sequences")
	}
	if p.Delay(43, "unit/a", 1) == prev[0] && p.Delay(43, "unit/a", 2) == prev[1] {
		t.Error("distinct seeds should draw distinct jitter sequences")
	}
}

func TestBackoffNoJitterAndCaps(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 10, BaseDelay: 50 * time.Millisecond, MaxDelay: 200 * time.Millisecond}
	want := []time.Duration{50, 100, 200, 200, 200}
	for i, w := range want {
		if d := p.Delay(1, "x", i+1); d != w*time.Millisecond {
			t.Errorf("attempt %d: delay = %v, want %v", i+1, d, w*time.Millisecond)
		}
	}
	if d := (RetryPolicy{}).Delay(1, "x", 1); d != 0 {
		t.Errorf("zero policy should have zero delay, got %v", d)
	}
}

func TestPermanentMarkerTransparent(t *testing.T) {
	base := fmt.Errorf("NXDOMAIN example.test")
	p := Permanent(base)
	if p.Error() != base.Error() {
		t.Errorf("Permanent must not change error text: %q vs %q", p.Error(), base.Error())
	}
	if !IsPermanent(p) || IsPermanent(base) {
		t.Error("IsPermanent misclassifies")
	}
	if !errors.Is(p, base) {
		t.Error("Permanent must preserve the error chain")
	}
	if Permanent(nil) != nil {
		t.Error("Permanent(nil) must be nil")
	}
}

// --- Pool ---

func okUnits(n int) []Unit[string] {
	units := make([]Unit[string], n)
	for i := range units {
		i := i
		units[i] = Unit[string]{
			ID: "u" + strconv.Itoa(i),
			Run: func(context.Context) (string, error) {
				// Value derives only from the unit's stable ID.
				return strconv.FormatUint(rng.New(9, "unit-value", strconv.Itoa(i)).Uint64(), 10), nil
			},
		}
	}
	return units
}

func TestPoolResultsIndexedAndDeterministicAcrossWorkers(t *testing.T) {
	var base []Result[string]
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		p := New[string](Options{Workers: workers})
		res, err := p.Run(context.Background(), okUnits(40))
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = res
			continue
		}
		for i := range res {
			if res[i].Value != base[i].Value || res[i].ID != base[i].ID {
				t.Fatalf("workers=%d: result %d differs: %+v vs %+v", workers, i, res[i], base[i])
			}
		}
	}
	st := New[string](Options{Workers: 4})
	res, _ := st.Run(context.Background(), okUnits(8))
	for i, r := range res {
		if r.ID != "u"+strconv.Itoa(i) {
			t.Fatalf("result %d carries outcome for %q: results must be unit-indexed", i, r.ID)
		}
	}
}

func TestPoolRetryEventuallySucceeds(t *testing.T) {
	var calls atomic.Int64
	clk := NewFakeClock(studyEpoch())
	p := New[int](Options{
		Workers: 2,
		Retry:   RetryPolicy{MaxAttempts: 5, BaseDelay: time.Second, Multiplier: 2},
		Clock:   clk,
		Seed:    3,
	})
	done := make(chan []Result[int], 1)
	go func() {
		res, _ := p.Run(context.Background(), []Unit[int]{{
			ID: "flaky",
			Run: func(context.Context) (int, error) {
				if calls.Add(1) < 3 {
					return 0, fmt.Errorf("transient")
				}
				return 7, nil
			},
		}})
		done <- res
	}()
	// Exactly two backoff waits: 1s then 2s — drive them, no sleeps.
	clk.BlockUntilWaiters(1)
	if step := clk.AdvanceToNext(); step != time.Second {
		t.Errorf("first backoff = %v, want 1s", step)
	}
	clk.BlockUntilWaiters(1)
	if step := clk.AdvanceToNext(); step != 2*time.Second {
		t.Errorf("second backoff = %v, want 2s", step)
	}
	res := <-done
	r := res[0]
	if r.Err != nil || r.Value != 7 || r.Attempts != 3 {
		t.Fatalf("outcome = %+v, want success on attempt 3", r.Outcome)
	}
	if r.Backoff != 3*time.Second {
		t.Errorf("backoff total = %v, want 3s", r.Backoff)
	}
	if r.Latency != 3*time.Second {
		t.Errorf("latency = %v, want 3s of virtual time", r.Latency)
	}
	st := p.Stats()
	if st.Succeeded != 1 || st.Attempts != 3 || st.Retries != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestPoolRetryExhaustion(t *testing.T) {
	var calls atomic.Int64
	p := New[int](Options{Retry: RetryPolicy{MaxAttempts: 4}})
	res, err := p.Run(context.Background(), []Unit[int]{{
		ID:  "dead",
		Run: func(context.Context) (int, error) { calls.Add(1); return 0, fmt.Errorf("always down") },
	}})
	if err != nil {
		t.Fatal(err)
	}
	r := res[0]
	if r.Err == nil || r.Attempts != 4 || calls.Load() != 4 {
		t.Fatalf("outcome = %+v after %d calls; want 4 attempts then failure", r.Outcome, calls.Load())
	}
	st := p.Stats()
	if st.Failed != 1 || st.Retries != 3 {
		t.Errorf("stats = %+v", st)
	}
}

func TestPoolPermanentErrorNotRetried(t *testing.T) {
	var calls atomic.Int64
	p := New[int](Options{Retry: RetryPolicy{MaxAttempts: 10}})
	res, _ := p.Run(context.Background(), []Unit[int]{{
		ID:  "cfg",
		Run: func(context.Context) (int, error) { calls.Add(1); return 0, Permanent(fmt.Errorf("bad config")) },
	}})
	if calls.Load() != 1 || res[0].Attempts != 1 {
		t.Errorf("permanent failure was retried: %d calls", calls.Load())
	}
}

func TestPoolTimeoutExpiry(t *testing.T) {
	clk := NewFakeClock(studyEpoch())
	p := New[int](Options{Timeout: 30 * time.Second, Clock: clk})
	done := make(chan []Result[int], 1)
	go func() {
		res, _ := p.Run(context.Background(), []Unit[int]{{
			ID: "hang",
			Run: func(ctx context.Context) (int, error) {
				<-ctx.Done() // a well-behaved unit honors cancellation
				return 0, ctx.Err()
			},
		}})
		done <- res
	}()
	clk.BlockUntilWaiters(1)
	clk.Advance(30 * time.Second)
	res := <-done
	r := res[0]
	if !errors.Is(r.Err, ErrAttemptTimeout) {
		t.Fatalf("err = %v, want ErrAttemptTimeout", r.Err)
	}
	if r.Attempts != 1 {
		t.Errorf("attempts = %d", r.Attempts)
	}
}

func TestPoolTimeoutThenRetrySucceeds(t *testing.T) {
	clk := NewFakeClock(studyEpoch())
	p := New[int](Options{
		Timeout: 10 * time.Second,
		Retry:   RetryPolicy{MaxAttempts: 2},
		Clock:   clk,
	})
	done := make(chan []Result[int], 1)
	go func() {
		res, _ := p.Run(context.Background(), []Unit[int]{{
			ID: "slow-once",
			Run: func(ctx context.Context) (int, error) {
				// Hang before the first timeout fires, succeed after: attempt
				// identity must come from the clock, not a call counter — the
				// abandoned first-attempt goroutine races the retry's.
				if clk.Now().Equal(studyEpoch()) {
					<-ctx.Done()
					return 0, ctx.Err()
				}
				return 5, nil
			},
		}})
		done <- res
	}()
	clk.BlockUntilWaiters(1)
	clk.Advance(10 * time.Second)
	res := <-done
	r := res[0]
	if r.Err != nil || r.Value != 5 || r.Attempts != 2 {
		t.Fatalf("outcome = %+v; want success on the post-timeout retry", r.Outcome)
	}
}

func TestPoolFailFastSkipsQueued(t *testing.T) {
	var ran atomic.Int64
	units := []Unit[int]{
		{ID: "boom", Run: func(context.Context) (int, error) { return 0, fmt.Errorf("fatal") }},
		{ID: "later", Run: func(context.Context) (int, error) { ran.Add(1); return 1, nil }},
		{ID: "latest", Run: func(context.Context) (int, error) { ran.Add(1); return 2, nil }},
	}
	p := New[int](Options{Workers: 1, FailFast: true})
	res, err := p.Run(context.Background(), units)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err == nil || res[0].Skipped {
		t.Fatalf("unit 0 should fail: %+v", res[0].Outcome)
	}
	if !res[1].Skipped || !res[2].Skipped {
		t.Errorf("queued units should be skipped after a fatal error: %+v / %+v", res[1].Outcome, res[2].Outcome)
	}
	if ran.Load() != 0 {
		t.Errorf("%d skipped units actually ran", ran.Load())
	}
	st := p.Stats()
	if st.Failed != 1 || st.Skipped != 2 {
		t.Errorf("stats = %+v", st)
	}

	// Without FailFast the rest of the campaign completes.
	p2 := New[int](Options{Workers: 1})
	res2, _ := p2.Run(context.Background(), units)
	if res2[1].Err != nil || res2[2].Err != nil {
		t.Error("without FailFast, later units must run")
	}
}

func TestPoolParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := New[string](Options{Workers: 3})
	res, err := p.Run(ctx, okUnits(5))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i, r := range res {
		if !r.Skipped {
			t.Errorf("unit %d ran under a cancelled context", i)
		}
	}
}

func TestPoolStatsAccumulateAcrossBatches(t *testing.T) {
	p := New[string](Options{Workers: 2})
	if _, err := p.Run(context.Background(), okUnits(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(context.Background(), okUnits(2)); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Units != 5 || st.Succeeded != 5 || st.Attempts != 5 {
		t.Errorf("stats = %+v, want 5 units across two batches", st)
	}
}

// --- FakeClock ---

func TestFakeClockFiresInOrder(t *testing.T) {
	clk := NewFakeClock(studyEpoch())
	a := clk.After(time.Second)
	b := clk.After(3 * time.Second)
	if clk.Waiters() != 2 {
		t.Fatalf("waiters = %d", clk.Waiters())
	}
	clk.Advance(time.Second)
	select {
	case at := <-a:
		if !at.Equal(studyEpoch().Add(time.Second)) {
			t.Errorf("a fired at %v", at)
		}
	default:
		t.Fatal("a should have fired")
	}
	select {
	case <-b:
		t.Fatal("b fired early")
	default:
	}
	if step := clk.AdvanceToNext(); step != 2*time.Second {
		t.Errorf("AdvanceToNext = %v", step)
	}
	<-b
	if clk.Waiters() != 0 {
		t.Errorf("waiters = %d after all fired", clk.Waiters())
	}
}

func TestFakeClockImmediateAfter(t *testing.T) {
	clk := NewFakeClock(studyEpoch())
	select {
	case <-clk.After(0):
	default:
		t.Error("After(0) must fire immediately")
	}
	if clk.AdvanceToNext() != 0 {
		t.Error("AdvanceToNext with no waiters must be 0")
	}
}
