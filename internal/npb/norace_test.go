//go:build !race

package npb

const raceEnabled = false
