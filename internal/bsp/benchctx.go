package bsp

import "sync/atomic"

// NewBenchContext returns a detached Context for microbenchmarks and
// allocation-regression tests that call a Program's Init or Process directly,
// outside the superstep loop. Sends accumulate in per-worker buffers exactly
// as in a real superstep; ResetSends truncates them in place (keeping
// capacity) so steady-state iterations can be measured allocation-free.
//
// It is not wired to any exchange or barrier — production code has no use
// for it.
func NewBenchContext[M any](cfg Config, worker, step int) *Context[M] {
	return newContext[M](&cfg, worker, step, new(atomic.Pointer[error]))
}

// ResetSends truncates the context's outgoing buffers in place, keeping
// their capacity, so a benchmark can reuse the context across iterations.
func (c *Context[M]) ResetSends() {
	for w := range c.out {
		c.out[w] = c.out[w][:0]
	}
	c.sent = 0
}

// SentCount reports how many messages have been sent through the context
// since the last ResetSends (for bench-harness sanity checks).
func (c *Context[M]) SentCount() int64 { return c.sent }

// Sends returns the messages currently buffered for worker w, so a bench
// harness can feed one phase's output into the next. The slice aliases the
// context's buffer: copy anything that must survive ResetSends.
func (c *Context[M]) Sends(w int) []Envelope[M] { return c.out[w] }
