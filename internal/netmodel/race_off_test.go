//go:build !race

package netmodel_test

const raceEnabled = false
