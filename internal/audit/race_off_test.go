//go:build !race

package audit

const raceEnabled = false
