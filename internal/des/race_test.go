//go:build race

package des

func init() { raceEnabled = true }
