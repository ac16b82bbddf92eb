//go:build !race

package flowserve

const raceEnabled = false
