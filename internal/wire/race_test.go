//go:build race

package wire

// raceEnabled skips the heap byte-count checks under the race detector;
// see norace_test.go.
const raceEnabled = true
