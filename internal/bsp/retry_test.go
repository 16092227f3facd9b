package bsp

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestBackoffForDeterministicWithoutJitter: the backoff is the doubling
// schedule, capped at MaxBackoff.
func TestBackoffForDeterministicWithoutJitter(t *testing.T) {
	p := RetryPolicy{BaseBackoff: time.Millisecond, MaxBackoff: 10 * time.Millisecond}
	want := []time.Duration{
		1 * time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond,
		8 * time.Millisecond, 10 * time.Millisecond, 10 * time.Millisecond,
	}
	for i, w := range want {
		if got := backoffFor(p, i+1); got != w {
			t.Fatalf("attempt %d: backoff %v, want %v", i+1, got, w)
		}
	}
}

// TestWithRetryRetriesAndSucceeds: a failing op is re-issued until it
// succeeds, within the attempt budget.
func TestWithRetryRetriesAndSucceeds(t *testing.T) {
	calls := 0
	err := withRetry(context.Background(),
		RetryPolicy{MaxAttempts: 5, BaseBackoff: 10 * time.Microsecond, MaxBackoff: 100 * time.Microsecond},
		func() error {
			calls++
			if calls < 4 {
				return errors.New("transient")
			}
			return nil
		})
	if err != nil {
		t.Fatalf("withRetry: %v", err)
	}
	if calls != 4 {
		t.Fatalf("op called %d times, want 4", calls)
	}
}
