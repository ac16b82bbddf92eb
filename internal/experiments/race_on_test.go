//go:build race

package experiments

// raceEnabled lets the tests skip their largest fixtures under the race
// detector, which multiplies their time and memory.
const raceEnabled = true
