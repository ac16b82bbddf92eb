//go:build race

package flowserve

// raceEnabled lets allocation-count gates skip under the race detector,
// whose instrumentation allocates on synchronization operations.
const raceEnabled = true
