//go:build !(darwin || dragonfly || freebsd || linux || netbsd || openbsd)

package lab

import "os"

// tryLock reports false: without flock a store cannot tell a live
// writer's segment from a finished one, so it reclaims only its own.
func tryLock(f *os.File) bool { return false }
