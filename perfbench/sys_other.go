//go:build !linux

package main

import "time"

func sleepUntil(base time.Time, due int64) {
	if w := due - int64(time.Since(base)); w > 0 {
		time.Sleep(time.Duration(w))
	}
}

func fsType(string) string { return "unknown" }
