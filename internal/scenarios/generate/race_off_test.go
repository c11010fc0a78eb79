//go:build !race

package generate_test

const raceEnabled = false
