//go:build !race

package repro

// raceBuild reports whether this test binary runs under the race
// detector; buildCmd then builds the binaries it starts with -race too.
const raceBuild = false
