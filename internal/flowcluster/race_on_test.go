//go:build race

package flowcluster

// raceEnabled lets allocation-count gates skip under the race detector,
// whose instrumentation allocates on synchronization operations.
const raceEnabled = true
