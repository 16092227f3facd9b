package bsp

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"
)

// RetryPolicy bounds exponential backoff around frame Sends. A Send is
// atomic (it is delivered and acked in full, or fails having delivered
// nothing), so a failed call is safe to re-issue with the same batch; the
// one failure that is not — a TCP write torn mid-frame — closes its
// connection, so the re-issues fail too and the attempt ends in recovery.
//
// Backoff sleeps use full jitter by default: each sleep is drawn uniformly
// from [0, cap] where cap doubles per attempt from BaseBackoff up to
// MaxBackoff. Without jitter, N workers that lost the same peer retry in
// lockstep and thundering-herd the survivor at exactly the same instants;
// the uniform draw decorrelates them (the AWS "full jitter" scheme). Set
// JitterSeed for a deterministic draw sequence (fault-injection tests), or
// NoJitter to recover the pre-jitter deterministic schedule.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts, first try included.
	// 0 and 1 both mean a single attempt (no retry).
	MaxAttempts int
	// BaseBackoff is the backoff cap before the first retry, doubled after
	// each failure. 0 means 1ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the per-retry backoff cap. 0 means 100ms.
	MaxBackoff time.Duration
	// JitterSeed seeds the full-jitter draws so a fault schedule replays
	// bit-identically. 0 draws a fresh seed per withRetry call, so
	// concurrent retry loops across workers decorrelate.
	JitterSeed int64
	// NoJitter disables jitter entirely: every retry sleeps the full
	// deterministic cap (the pre-jitter behavior; tests asserting exact
	// backoff schedules use this).
	NoJitter bool
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

// retrySeedCounter decorrelates unseeded retry loops: each withRetry call
// mixes a fresh counter value with the wall clock, so two workers starting
// their retry loops in the same nanosecond still draw different jitter.
var retrySeedCounter atomic.Int64

// retrySeed derives the per-call seed for unseeded jitter. The clock and the
// counter are mixed through a splitmix64-style avalanche finalizer so every
// counter increment flips about half the seed bits. The previous scheme,
// `nano ^ (counter << 20)`, left same-tick callers with seeds differing only
// in a narrow bit window — newFaultRand's single multiply did not disperse
// that, so concurrent retriers drew correlated backoff sequences and
// thundering-herded the peer that full jitter exists to protect.
func retrySeed() int64 {
	z := uint64(time.Now().UnixNano()) + uint64(retrySeedCounter.Add(1))*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// backoffFor returns the sleep before the retry following `attempt` (1-based
// failed attempts so far): the deterministic cap under NoJitter, otherwise a
// uniform draw in [0, cap].
func backoffFor(p RetryPolicy, rng *faultRand, attempt int) time.Duration {
	cap := p.BaseBackoff
	for i := 1; i < attempt && cap < p.MaxBackoff; i++ {
		cap *= 2
	}
	cap = min(cap, p.MaxBackoff)
	if p.NoJitter {
		return cap
	}
	return time.Duration(rng.float64v() * float64(cap))
}

// withRetry runs op up to p.MaxAttempts times with full-jitter exponential
// backoff, stopping early when ctx is done. The jitter stream is seeded at
// the first failure, so a call that succeeds outright — every frame of a
// healthy run — costs nothing beyond op itself.
func withRetry(ctx context.Context, p RetryPolicy, op func() error) error {
	err := op()
	if err == nil {
		return nil
	}
	p = p.withDefaults()
	var rng *faultRand
	if !p.NoJitter {
		seed := p.JitterSeed
		if seed == 0 {
			seed = retrySeed()
		}
		rng = newFaultRand(seed)
	}
	for attempt := 1; ; attempt++ {
		if attempt >= p.MaxAttempts || ctx.Err() != nil {
			if attempt > 1 {
				return fmt.Errorf("after %d attempts: %w", attempt, err)
			}
			return err
		}
		if sleepCtx(ctx, backoffFor(p, rng, attempt)) != nil {
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
