package bsp

// Fault injection. Distributed subgraph listing treats failure tolerance as
// a first-class requirement (Ren et al., "Fast and Robust Distributed
// Subgraph Enumeration"; DDSL); to prove our recovery machinery actually
// recovers, this file wraps any transport in a deterministic fault injector
// (faultTransport). A run with injected faults plus retry/recovery must
// produce byte-identical counts to a clean run, and the recovery tests
// assert exactly that.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrInjectedFault marks every error produced by the fault injector, so
// tests and callers can tell injected failures from real ones.
var ErrInjectedFault = errors.New("bsp: injected fault")

// FaultConfig parameterizes the injector. All draws come from a PRNG seeded
// with Seed, so a given config produces the same fault schedule on every
// run. Rates are probabilities in [0, 1] and are evaluated in order
// error → drop → delay on a single draw per fault opportunity: an attempt of
// a superstep's opening frame in strict mode, a wire frame under AsyncExchange.
type FaultConfig struct {
	// Seed drives the deterministic fault schedule.
	Seed int64
	// ErrorRate is the probability the opportunity fails with an injected
	// transport error before anything is delivered.
	ErrorRate float64
	// DropRate is the probability the batch is dropped. The loss is detected
	// before delivery (as Giraph detects worker failure at barriers) and
	// surfaces as an error with nothing delivered.
	DropRate float64
	// DelayRate is the probability the call is delayed by a uniform random
	// duration in [0, MaxDelay] without failing.
	DelayRate float64
	// MaxDelay bounds injected delays; 0 disables delays.
	MaxDelay time.Duration
	// FromStep suppresses faults for ordinals (supersteps; async frame seqs)
	// below it, letting runs make checkpointable progress before failures
	// start.
	FromStep int
	// MaxFaults caps the number of injected errors plus drops (0 = no cap).
	MaxFaults int
}

// NewFaultyExchangeFactory wraps inner (nil = the in-process exchange) in a
// deterministic fault injector. The fault state — the PRNG stream and the
// fault count — lives in the factory, not the transport, so a transport
// rebuilt during checkpoint recovery continues the fault schedule where it
// left off instead of deterministically replaying the same fault forever.
func NewFaultyExchangeFactory(inner ExchangeFactory, fc FaultConfig) ExchangeFactory {
	return &ScheduledFaultFactory{inner: inner, fc: fc, random: &faultyState{rng: newFaultRand(fc.Seed)}}
}

// faultyState is shared by every transport built from one factory; the mutex
// makes the draw-and-count step atomic (async workers Send concurrently).
type faultyState struct {
	mu     sync.Mutex
	rng    *faultRand
	faults int
}

// draw advances the shared fault stream once and decides one opportunity's
// fate: a non-nil error (injected fault) or a delay to sleep before
// delivering.
func (st *faultyState) draw(fc FaultConfig, step int) (error, time.Duration) {
	st.mu.Lock()
	defer st.mu.Unlock()
	r := st.rng.float64v()
	if step < fc.FromStep {
		return nil, 0
	}
	canFault := fc.MaxFaults == 0 || st.faults < fc.MaxFaults
	switch {
	case canFault && r < fc.ErrorRate:
		st.faults++
		return fmt.Errorf("%w: transport error at step %d (fault #%d)", ErrInjectedFault, step, st.faults), 0
	case canFault && r < fc.ErrorRate+fc.DropRate:
		st.faults++
		return fmt.Errorf("%w: batch dropped at step %d, detected before delivery (fault #%d)", ErrInjectedFault, step, st.faults), 0
	case r < fc.ErrorRate+fc.DropRate+fc.DelayRate && fc.MaxDelay > 0:
		return nil, time.Duration(st.rng.float64v() * float64(fc.MaxDelay))
	}
	return nil, 0
}

// faultTransport is the one fault middleware: it wraps any transport and
// decides, before the inner transport sees the batch, whether this Send
// fails, stalls, or passes — so a failed Send delivers and acks nothing,
// exactly the contract retry and checkpoint recovery rely on. Its factory
// carries either policy: the seeded probabilistic injector or the fire-once
// step schedule; both match against the ordinal word the frame is sent
// under. Policy state lives in the factory, so a transport rebuilt during
// recovery continues where the last one stopped.
//
// Every Send is a fault opportunity unless the loop's faultPoint hook names
// fewer: every pipelined wire frame is one, but a superstep sends up to K×K
// frames under one ordinal and fails as a whole, so the stepped policy names
// only the frame that opens it (0→0, which worker 0 sends first among its own
// frames, empty or not — the final superstep's too, since worker 0 cannot
// know nothing was produced). FaultConfig rates then stay per step attempt
// rather than compounding K×K-fold, and same-step scheduled faults fire on
// successive attempts of that frame — three kills exhaust a three-attempt
// retry budget and force a restore, as a dead worker should.
type faultTransport[M any] struct {
	inner  transport[M]
	point  func(src, dst int) bool
	policy *ScheduledFaultFactory
}

func (f *faultTransport[M]) Send(ctx context.Context, src, dst, ord int, batch [][]Envelope[M]) (bool, error) {
	if f.point == nil || f.point(src, dst) {
		if err := f.inject(ctx, ord); err != nil {
			return false, err
		}
	}
	return f.inner.Send(ctx, src, dst, ord, batch)
}

// inject consults the policy once for ordinal ord: an injected error, or a
// delay slept here (cut short by ctx).
func (f *faultTransport[M]) inject(ctx context.Context, ord int) error {
	p, delay := f.policy, time.Duration(0)
	if p.schedule != nil {
		if sf, ok := p.schedule.next(ord); ok {
			if err := scheduledFaultError(sf, ord); err != nil {
				return err
			}
			delay = sf.Delay
		}
	}
	if p.random != nil {
		fault, d := p.random.draw(p.fc, ord)
		if fault != nil {
			return fault
		}
		delay += d
	}
	if delay <= 0 {
		return nil
	}
	return sleepCtx(ctx, delay)
}

func (f *faultTransport[M]) Close() error { return f.inner.Close() }

// faultRand is a tiny xorshift PRNG: deterministic, dependency-free, and
// independent of math/rand's global state.
type faultRand struct{ state uint64 }

func newFaultRand(seed int64) *faultRand {
	s := uint64(seed)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	return &faultRand{state: s}
}

func (r *faultRand) next() uint64 {
	s := r.state
	s ^= s << 13
	s ^= s >> 7
	s ^= s << 17
	r.state = s
	return s
}

func (r *faultRand) float64v() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}
