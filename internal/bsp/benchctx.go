package bsp

import "sync/atomic"

// NewBenchContext returns a detached Context for microbenchmarks and
// allocation-regression tests that call a Program's Init or Process directly,
// outside the superstep loop. Sends accumulate in per-worker chunked batches
// exactly as in a real superstep; ResetSends empties them and keeps the chunks
// for reuse, so steady-state iterations can be measured allocation-free.
//
// It is not wired to any exchange or barrier — production code has no use
// for it.
func NewBenchContext[M any](cfg Config, worker, step int) *Context[M] {
	return newContext[M](&cfg, worker, step, new(atomic.Pointer[error]))
}

// ResetSends empties the context's outgoing batches, keeping their chunks as
// spares, so a benchmark can reuse the context across iterations.
func (c *Context[M]) ResetSends() {
	for w, chunks := range c.out {
		for _, chunk := range chunks {
			c.spare = append(c.spare, chunk[:0])
		}
		c.out[w] = chunks[:0]
	}
	c.sent = 0
}

// SentCount reports how many messages have been sent through the context
// since the last ResetSends (for bench-harness sanity checks).
func (c *Context[M]) SentCount() int64 { return c.sent }

// Sends returns a copy of the messages currently buffered for worker w, so a
// bench harness can feed one phase's output into the next.
func (c *Context[M]) Sends(w int) []Envelope[M] { return flatten(c.out[w]) }
