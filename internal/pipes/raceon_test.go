//go:build race

package pipes

func init() { raceEnabled = true }
