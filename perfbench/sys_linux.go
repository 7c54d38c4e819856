//go:build linux

package main

import (
	"fmt"
	"syscall"
	"time"
)

// sleepUntil blocks until due (ns since base). It sleeps in nanosleep
// rather than time.Sleep, whose wakeups on Linux come up to a millisecond
// late; an open-loop sender that late would miss its schedule.
func sleepUntil(base time.Time, due int64) {
	for {
		w := due - int64(time.Since(base))
		if w <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(w)
		syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps again
	}
}

// fsType names the filesystem holding dir, where the file backend puts its
// segment files.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x6969:
		return "nfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
