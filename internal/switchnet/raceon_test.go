//go:build race

package switchnet

func init() { raceEnabled = true }
