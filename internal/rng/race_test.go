//go:build race

package rng

func init() { raceEnabled = true }
