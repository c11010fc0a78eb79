//go:build race

package audit

// raceEnabled skips the allocation budgets under the race detector, which
// allocates on its own; CI's "Allocation budgets" step runs them without it.
const raceEnabled = true
