//go:build darwin || dragonfly || freebsd || linux || netbsd || openbsd

package lab

import (
	"os"
	"syscall"
)

// tryLock takes an exclusive advisory lock (flock) on f without
// waiting. It reports false when another open file holds the lock:
// another Store, in this process or another, writes or reclaims the
// segment.
func tryLock(f *os.File) bool {
	rc, err := f.SyscallConn()
	if err != nil {
		return false
	}
	var lerr error
	if err := rc.Control(func(fd uintptr) {
		lerr = syscall.Flock(int(fd), syscall.LOCK_EX|syscall.LOCK_NB)
	}); err != nil {
		return false
	}
	return lerr == nil
}
