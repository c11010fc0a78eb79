//go:build race

package generate_test

// raceEnabled bounds the seeded oracles under the race detector.
const raceEnabled = true
