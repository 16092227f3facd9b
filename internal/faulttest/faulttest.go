// Package faulttest builds step-fault schedules for tests. A schedule that
// never fires leaves its test running a clean run that still passes, so every
// schedule built here fails its test unless all of its faults fired.
package faulttest

import (
	"testing"

	"psgl/internal/bsp"
)

// Schedule returns bsp.NewScheduledFaultExchangeFactory(inner, faults) and
// registers a cleanup that fails t unless every fault in the schedule fired
// by the end of the test.
func Schedule(t testing.TB, inner bsp.ExchangeFactory, faults ...bsp.StepFault) *bsp.ScheduledFaultFactory {
	t.Helper()
	f := bsp.NewScheduledFaultExchangeFactory(inner, faults)
	t.Cleanup(func() {
		if n := f.Fired(); n != len(faults) {
			t.Errorf("%d of the %d scheduled faults fired: %+v", n, len(faults), faults)
		}
	})
	return f
}
