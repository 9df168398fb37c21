//go:build race

package coverage

func init() { raceEnabled = true }
