//go:build !linux

package main

// pinToCPU is a no-op where thread affinity is not available; the result
// records the GOMAXPROCS the run used.
func pinToCPU(int) error { return nil }
