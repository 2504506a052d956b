//go:build linux

package accounting

import (
	"os"
	"syscall"
)

// syncFileRangeWrite is SYNC_FILE_RANGE_WRITE: start writeback of the
// range's dirty pages without waiting for completion.
const syncFileRangeWrite = 2

// hintWriteback asks the kernel to begin writing [off, off+n) of the
// spill file back to disk without blocking the caller: group-committed
// batches then stream to disk continuously behind the appends, and the
// next hard sync point (spill.syncLocked, reached via Drain) has
// little left to wait for. Purely advisory — errors are ignored, and a
// filesystem without sync_file_range support just makes the hint free.
func hintWriteback(f *os.File, off, n int64) {
	if f == nil || n <= 0 {
		return
	}
	rc, err := f.SyscallConn()
	if err != nil {
		return
	}
	_ = rc.Control(func(fd uintptr) {
		_, _, _ = syscall.Syscall6(syscall.SYS_SYNC_FILE_RANGE, fd,
			uintptr(off), uintptr(n), syncFileRangeWrite, 0, 0)
	})
}
