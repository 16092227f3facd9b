//go:build race

package serve

// raceEnabled reports that the race detector is on: its shadow memory makes
// allocation budgets meaningless, so the tests that hold one skip.
const raceEnabled = true
