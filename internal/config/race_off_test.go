//go:build !race

package config_test

const raceEnabled = false
