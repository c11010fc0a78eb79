//go:build !race

package dataplane

const RaceEnabled = false
