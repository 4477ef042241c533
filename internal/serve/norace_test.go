//go:build !race

package serve

// raceEnabled reports a -race build, whose decodes run about 20× slower.
const raceEnabled = false
