//go:build !linux

package main

import "time"

// The resource readers are Linux-only (getrusage, /proc); elsewhere the
// benchmark still builds and runs but reports zero for them.

func cpuTime() time.Duration { return 0 }
func peakRSSMB() float64     { return 0 }
func cpuModel() string       { return "unknown" }

func preciseSleep(d time.Duration) { time.Sleep(d) }
