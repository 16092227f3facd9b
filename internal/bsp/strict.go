package bsp

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// barrier is the strict loop's side of the transport hooks: it stages what
// every worker sent every worker under the current superstep and completes
// when all K×K Sends — empty and self batches included — are acknowledged.
// Staging per (dst, src) keeps the loop's two promises: the merged inbox is
// src-ordered whatever order frames arrive in (in-process and TCP runs
// process identical sequences), and a barrier that fails has delivered
// nothing observable — the staged frames die with the attempt.
//
// Each staged[dst][src] slot is written by the one goroutine delivering that
// pair's Send and read by the loop only once the ack count says every
// delivery is over, so the slots need no lock.
type barrier[M any] struct {
	k      int
	step   int
	staged [][]Inbox[M]
	acks   atomic.Int32
	done   chan struct{} // one token when the K×K-th ack lands
	failed chan error    // first failure a sender or a reader reported
}

func newBarrier[M any](k int) *barrier[M] {
	b := &barrier[M]{k: k, staged: make([][]Inbox[M], k), done: make(chan struct{}, 1), failed: make(chan error, 1)}
	for dst := range b.staged {
		b.staged[dst] = make([]Inbox[M], k)
	}
	return b
}

func (b *barrier[M]) hooks() hooks[M] {
	return hooks[M]{deliver: b.deliver, ack: b.ack, fatal: b.fatal, faultPoint: opensBarrier}
}

// opensBarrier names the frame exchange sends before any other.
func opensBarrier(src, dst int) bool { return src == 0 && dst == 0 }

func (b *barrier[M]) deliver(src, dst, ord int, in Inbox[M]) {
	// Compressed step words carry 30 bits; compare what both formats keep.
	if ord&compressedStepMask != b.step&compressedStepMask {
		b.fatal(fmt.Errorf("bsp: frame %d->%d: step skew %d != %d", src, dst, ord, b.step))
		return
	}
	b.staged[dst][src] = in
}

func (b *barrier[M]) ack(int) {
	if int(b.acks.Add(1)) == b.k*b.k {
		b.done <- struct{}{}
	}
}

func (b *barrier[M]) fatal(err error) { trySend(b.failed, err) }

// exchange runs one superstep's barrier over t: every (src, dst) pair sends
// its batch, each frame under the retry policy — the opening frame alone
// from this goroutine, its retries being the barrier's fault opportunities
// (see faultTransport), then one sender goroutine per source, so encoding
// and socket writes use every core as the workers' compute did — then waits
// for the acks and merges the staged deliveries per destination. A frame out
// of retries fails the barrier; the barrier itself is never retried, because
// a transport that lost a frame may still deliver its siblings late.
func (b *barrier[M]) exchange(ctx context.Context, t transport[M], cfg *Config, step int, outAll [][][]Envelope[M]) ([]Inbox[M], error) {
	b.step = step
	b.acks.Store(0)
	send := func(src, dst int) bool {
		err := sendFrame(ctx, t, cfg, src, dst, step, outAll[src][dst])
		if err != nil {
			b.fatal(fmt.Errorf("frame %d->%d: %w", src, dst, err))
		}
		return err == nil
	}
	var wg sync.WaitGroup
	if send(0, 0) {
		for src := range b.k {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for dst := range b.k {
					if !opensBarrier(src, dst) && !send(src, dst) {
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	select {
	case <-b.done:
		// A step-skewed frame is acked like any other: done can be ready
		// with its failure pending, and select would pick either.
		select {
		case err := <-b.failed:
			return nil, err
		default:
		}
	case err := <-b.failed:
		return nil, err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	next := make([]Inbox[M], b.k)
	for dst, row := range b.staged {
		total := 0
		for src := range row {
			total += len(row[src].Envs)
		}
		next[dst].Envs = make([]Envelope[M], 0, total)
		for src := range row {
			next[dst].Envs = append(next[dst].Envs, row[src].Envs...)
			next[dst].Frames = append(next[dst].Frames, row[src].Frames...)
		}
		// Drop the staged references now: the senders' buffers must not stay
		// live through the next superstep's compute.
		clear(row)
	}
	return next, nil
}

// runStrict is one attempt of the barriered superstep loop: superstep 0 calls
// Init on every worker (unless the run was restored past it); each later
// superstep delivers the previous step's inboxes; the attempt ends when a
// superstep produces no messages, a worker aborts, or a superstep fails.
func runStrict[M any](ctx context.Context, r *run[M]) error {
	cfg, k, stats := &r.cfg, r.cfg.Workers, r.stats
	b := newBarrier[M](k)
	t, err := newTransport(ctx, cfg.Exchange, cfg, b.hooks())
	if err != nil {
		return err
	}
	defer t.Close()
	gprog, _ := any(r.prog).(GroupProgram[M])
	inboxes := r.inboxes
	if inboxes == nil {
		inboxes = make([]Inbox[M], k)
	}

	runStep := func(stepCtx context.Context, step int) (outAll [][][]Envelope[M], produced int64) {
		outAll = make([][][]Envelope[M], k)
		stepTimes := make([]time.Duration, k)
		counterSets := make([]map[string]int64, k)
		var wg sync.WaitGroup
		var producedAtomic, processedAtomic atomic.Int64
		done := stepCtx.Done()
		for w := 0; w < k; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				wctx := newContext[M](cfg, w, step, &r.abort)
				start := time.Now()
				processed := int64(0)
				if step == 0 {
					r.prog.Init(wctx)
				} else {
					processed = deliverInbox(wctx, r.prog, gprog, &inboxes[w], done, nil)
				}
				stepTimes[w] = time.Since(start)
				outAll[w] = wctx.out
				counterSets[w] = wctx.local
				producedAtomic.Add(wctx.sent)
				processedAtomic.Add(processed)
				stats.WorkerMessages[w] += processed
			}(w)
		}
		wg.Wait()
		for _, set := range counterSets {
			for name, v := range set {
				stats.Counters[name] += v
			}
		}
		stats.addStep(stepTimes, producedAtomic.Load())
		cfg.Observer.StepComputed(step, stepTimes, processedAtomic.Load(), producedAtomic.Load())
		return outAll, producedAtomic.Load()
	}

	for step := r.step; ; step++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("bsp: run canceled at step %d: %w", step, err)
		}
		if step >= r.maxSteps {
			return fmt.Errorf("bsp: exceeded %d supersteps", r.maxSteps)
		}
		stepCtx, cancel := ctx, func() {}
		if cfg.StepTimeout > 0 {
			stepCtx, cancel = context.WithTimeout(ctx, cfg.StepTimeout)
		}
		cfg.Observer.StepStarted(step)
		outAll, produced := runStep(stepCtx, step)
		if errp := r.abort.Load(); errp != nil {
			cancel()
			cfg.Observer.Aborted(step, *errp)
			return fmt.Errorf("%w: %v", ErrAborted, *errp)
		}
		if err := stepCtx.Err(); err != nil {
			cancel()
			return &attemptFailure{step, fmt.Errorf("bsp: superstep %d interrupted: %w", step, err)}
		}
		if produced == 0 {
			cancel()
			return nil
		}
		exStart := time.Now()
		next, err := b.exchange(stepCtx, t, cfg, step, outAll)
		cancel()
		if err != nil {
			return &attemptFailure{step, fmt.Errorf("bsp: exchange failed at step %d: %w", step, err)}
		}
		cfg.Observer.ExchangeDone(step, time.Since(exStart), produced)
		inboxes = next
		if cfg.CheckpointEvery > 0 && (step+1)%cfg.CheckpointEvery == 0 {
			ckStart := time.Now()
			nbytes, err := saveSnapshot[M](cfg.CheckpointStore, step+1, inboxes, stats, r.snapper)
			if err != nil {
				return fmt.Errorf("bsp: checkpoint at step %d: %w", step+1, err)
			}
			cfg.Observer.CheckpointSaved(step+1, nbytes, time.Since(ckStart))
		}
	}
}
