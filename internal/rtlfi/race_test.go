//go:build race

package rtlfi

func init() { raceDetector = true }
