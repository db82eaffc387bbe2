//go:build !(darwin || dragonfly || freebsd || linux || netbsd || openbsd)

package framelog

import "os"

// lockFile takes no lock where package syscall has no flock (windows,
// plan9, solaris and others): there a second live Open of a log is not
// refused.
func lockFile(*os.File) error { return nil }
