//go:build race

package service

// raceEnabled shrinks the load acceptance run under the race detector.
const raceEnabled = true
