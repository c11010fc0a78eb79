//go:build race

package dataplane

// RaceEnabled skips the allocation budgets under the race detector, which
// allocates on its own; CI's "Allocation budgets" step runs them without it.
// Exported for the external test package.
const RaceEnabled = true
