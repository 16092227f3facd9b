package bsp

import (
	"context"
	"fmt"
	"time"
)

// RetryPolicy bounds exponential backoff around frame Sends. A Send is
// atomic (it is delivered and acked in full, or fails having delivered
// nothing), so a failed call is safe to re-issue with the same batch; the
// one failure that is not — a TCP write torn mid-frame — closes its
// connection, so the re-issues fail too and the attempt ends in recovery.
//
// The backoff is deterministic: the sleep before each retry starts at
// BaseBackoff and doubles per attempt up to MaxBackoff, so a fault schedule
// replays with the same sleeps on every run.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts, first try included.
	// 0 and 1 both mean a single attempt (no retry).
	MaxAttempts int
	// BaseBackoff is the sleep before the first retry, doubled after each
	// failure. 0 means 1ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the per-retry sleep. 0 means 100ms.
	MaxBackoff time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 1
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 100 * time.Millisecond
	}
	return p
}

// backoffFor returns the sleep before the retry following `attempt` (1-based
// failed attempts so far): BaseBackoff doubled attempt−1 times, capped at
// MaxBackoff.
func backoffFor(p RetryPolicy, attempt int) time.Duration {
	d := p.BaseBackoff
	for i := 1; i < attempt && d < p.MaxBackoff; i++ {
		d *= 2
	}
	return min(d, p.MaxBackoff)
}

// withRetry runs op up to p.MaxAttempts times with capped exponential
// backoff, stopping early when ctx is done.
func withRetry(ctx context.Context, p RetryPolicy, op func() error) error {
	err := op()
	if err == nil {
		return nil
	}
	p = p.withDefaults()
	for attempt := 1; ; attempt++ {
		if attempt >= p.MaxAttempts || ctx.Err() != nil {
			if attempt > 1 {
				return fmt.Errorf("after %d attempts: %w", attempt, err)
			}
			return err
		}
		if sleepCtx(ctx, backoffFor(p, attempt)) != nil {
			return fmt.Errorf("canceled while backing off after attempt %d: %w", attempt, err)
		}
		if err = op(); err == nil {
			return nil
		}
	}
}

// sleepCtx sleeps for d, or until ctx is done (returning its error).
func sleepCtx(ctx context.Context, d time.Duration) error {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

// sendFrame is one transport Send under the run's retry policy — the loop's
// retry unit. A failed Send delivered nothing, so re-issuing it with
// the same batch is safe; each failed attempt is reported to the observer.
// spent is the successful Send's (transport.Send).
func sendFrame[M any](ctx context.Context, t transport[M], cfg *Config, src, dst, ord int, batch [][]Envelope[M]) (spent bool, err error) {
	attempt := 0
	err = withRetry(ctx, cfg.Retry, func() error {
		attempt++
		var err error
		spent, err = t.Send(ctx, src, dst, ord, batch)
		if err != nil {
			cfg.Observer.ExchangeFailed(ord, attempt, err)
		}
		return err
	})
	return spent, err
}
