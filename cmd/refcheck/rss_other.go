//go:build !linux && !darwin

package main

// peakRSS prints nothing where getrusage's Maxrss is unavailable.
func peakRSS() string { return "" }
