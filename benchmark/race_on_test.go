//go:build race

package main

// slowdown stretches the smoke test's serve windows under the race
// detector, which serves several times fewer requests per second.
const slowdown = 3
