//go:build race

package core

// raceEnabled reports a -race build, under which sync.Pool drops a
// random quarter of what is put back.
const raceEnabled = true
