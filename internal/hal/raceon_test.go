//go:build race

package hal

func init() { raceEnabled = true }
