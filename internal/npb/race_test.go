//go:build race

package npb

// raceEnabled keeps the class W bit-identity runs out of -race: the race
// detector slows them about tenfold, class S already drives the same
// code on the same team sizes, and the plain test run keeps W.
const raceEnabled = true
