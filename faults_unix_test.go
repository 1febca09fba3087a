//go:build unix

package repro

import "syscall"

func init() {
	minorFaults = func() int64 {
		var ru syscall.Rusage
		if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
			return -1
		}
		return int64(ru.Minflt)
	}
}
