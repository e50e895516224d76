//go:build race

package premia

func init() { raceEnabled = true }
