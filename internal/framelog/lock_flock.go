//go:build darwin || dragonfly || freebsd || linux || netbsd || openbsd

package framelog

import (
	"errors"
	"os"
	"syscall"
)

// lockFile takes an exclusive flock on f without waiting for it, or
// returns ErrLocked while another open file holds one. Closing f, or
// the exit of the process, releases it.
func lockFile(f *os.File) error {
	err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB)
	if errors.Is(err, syscall.EWOULDBLOCK) {
		return ErrLocked
	}
	return err
}
