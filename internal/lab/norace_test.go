//go:build !race

package lab

const raceEnabled = false
