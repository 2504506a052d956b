//go:build !linux

package accounting

import "os"

// hintWriteback is advisory: platforms without sync_file_range rely on
// the OS's own writeback plus the hard sync points (spill.syncLocked).
func hintWriteback(*os.File, int64, int64) {}
