//go:build !race

package heimdall

const raceEnabled = false
