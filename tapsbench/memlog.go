package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"unsafe"
)

// memfdCreate is memfd_create(2)'s system call number per Linux
// architecture; the syscall package does not export it.
var memfdCreate = map[string]uintptr{"amd64": 319, "arm64": 279}

// newLogPath returns the path of a fresh, empty decision log and a release
// function to call once the log has been read back. On Linux the log is an
// anonymous in-memory file (memfd), so the benchmark times the controller's
// write-ahead code path rather than the fsync latency of a disk it shares,
// and writes nothing outside the checkout. Elsewhere the log is a file in
// dir.
func newLogPath(dir, name string) (path string, release func(), err error) {
	if nr, ok := memfdCreate[runtime.GOARCH]; ok && runtime.GOOS == "linux" {
		p, err := syscall.BytePtrFromString(name)
		if err != nil {
			return "", nil, err
		}
		const mfdCloexec = 1
		fd, _, errno := syscall.Syscall(nr, uintptr(unsafe.Pointer(p)), mfdCloexec, 0)
		if errno == 0 {
			return fmt.Sprintf("/proc/self/fd/%d", fd), func() { syscall.Close(int(fd)) }, nil
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", nil, err
	}
	path = filepath.Join(dir, name)
	if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return "", nil, err
	}
	return path, func() {}, nil
}
