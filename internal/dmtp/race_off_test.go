//go:build !race

package dmtp

const raceEnabled = false
