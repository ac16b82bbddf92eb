//go:build !race

package flowcluster

const raceEnabled = false
