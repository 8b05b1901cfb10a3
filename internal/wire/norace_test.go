//go:build !race

package wire

// raceEnabled gates the heap byte-count checks of Decode: the race
// detector's bookkeeping allocates alongside the code under test.
const raceEnabled = false
