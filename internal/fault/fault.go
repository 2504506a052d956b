// Package fault is the spill pipeline's fault-injection harness: an
// Injector interposes on the record store's write/sync/truncate calls and,
// per a test-scripted schedule, fails the nth write, fails fsync, slows
// writes down, tears a write mid-frame, or "crashes" at a named point —
// after which every injected I/O fails without touching the files again,
// leaving a faithful on-disk crash image for recovery tests.
//
// All methods are nil-receiver safe: production code holds a nil *Injector
// and pays one predictable branch per I/O call. The package deliberately
// imports nothing from the accounting layer so it can be wired anywhere.
package fault

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"time"
)

// Sentinel errors returned by injected operations.
var (
	// ErrInjected is the base error for scheduled write/sync failures.
	ErrInjected = errors.New("fault: injected I/O error")
	// ErrCrashed is returned by every operation after a crash point fired:
	// the process is pretending to be dead, so no file may be touched.
	ErrCrashed = errors.New("fault: crashed")
)

// Injector schedules I/O faults. The zero value injects nothing; configure
// it with the Fail*/Slow*/Crash* methods before handing it to the store.
// Configuration and counters are guarded by one mutex — injectors sit on
// test paths where a lock per I/O is irrelevant.
type Injector struct {
	mu     sync.Mutex
	writes uint64 // completed Write interpositions (1-based in schedules)
	syncs  uint64

	failWriteFrom, failWriteN uint64 // fail writes [from, from+n)
	writeErr                  error
	tornBytes                 int // bytes persisted by a failing write (0 = none)

	failSyncFrom, failSyncN uint64
	syncErr                 error

	slowWrite time.Duration

	crashWriteAt uint64 // crash on this write ordinal (0 = disarmed)
	crashTorn    int    // bytes the crashing write leaves behind
	hits         map[string]uint64
	crashPoint   string
	crashHit     uint64 // crash on this ordinal hit of crashPoint

	crashed   bool
	crashedCh chan struct{}
}

// New returns an empty injector (injects nothing until configured).
func New() *Injector {
	return &Injector{crashedCh: make(chan struct{})}
}

// FailWrites schedules writes [from, from+n) (1-based ordinals) to fail
// with err (ErrInjected when nil). A bounded n models a transient fault
// that heals — the store's retry loop should ride it out; a huge n models
// a permanently failing disk.
func (i *Injector) FailWrites(from, n uint64, err error) {
	if err == nil {
		err = ErrInjected
	}
	i.mu.Lock()
	i.failWriteFrom, i.failWriteN, i.writeErr = from, n, err
	i.mu.Unlock()
}

// TornBytes makes every scheduled write failure first persist up to k bytes
// of the attempted buffer — a torn write, as a power cut mid-write leaves.
func (i *Injector) TornBytes(k int) {
	i.mu.Lock()
	i.tornBytes = k
	i.mu.Unlock()
}

// FailSyncs schedules syncs [from, from+n) (1-based ordinals) to fail with
// err (ErrInjected when nil).
func (i *Injector) FailSyncs(from, n uint64, err error) {
	if err == nil {
		err = ErrInjected
	}
	i.mu.Lock()
	i.failSyncFrom, i.failSyncN, i.syncErr = from, n, err
	i.mu.Unlock()
}

// SlowWrites delays every subsequent write by d, modelling a saturated or
// dying disk that has not failed outright yet.
func (i *Injector) SlowWrites(d time.Duration) {
	i.mu.Lock()
	i.slowWrite = d
	i.mu.Unlock()
}

// CrashOnWrite arms a crash at the nth write (1-based): that write persists
// exactly torn bytes of its buffer, then the injector enters the crashed
// state — every later Write/Sync/Truncate fails with ErrCrashed without
// touching files, so the directory holds a faithful mid-group-commit crash
// image (torn tail included) while the test can still Close cleanly.
func (i *Injector) CrashOnWrite(n uint64, torn int) {
	i.mu.Lock()
	i.crashWriteAt, i.crashTorn = n, torn
	i.mu.Unlock()
}

// CrashAt arms a crash at the nth Hit (1-based) of the named point.
func (i *Injector) CrashAt(point string, nth uint64) {
	i.mu.Lock()
	i.crashPoint, i.crashHit = point, nth
	i.mu.Unlock()
}

// Crash flips the injector into the crashed state immediately.
func (i *Injector) Crash() {
	if i == nil {
		return
	}
	i.mu.Lock()
	i.crash()
	i.mu.Unlock()
}

// crash must be called with mu held.
func (i *Injector) crash() {
	if !i.crashed {
		i.crashed = true
		if i.crashedCh != nil {
			close(i.crashedCh)
		}
	}
}

// Crashed reports whether a crash point has fired.
func (i *Injector) Crashed() bool {
	if i == nil {
		return false
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.crashed
}

// CrashedChan is closed when a crash point fires, for test synchronisation.
// Only valid on injectors built with New.
func (i *Injector) CrashedChan() <-chan struct{} { return i.crashedCh }

// Writes returns how many writes have been interposed so far.
func (i *Injector) Writes() uint64 {
	if i == nil {
		return 0
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.writes
}

// Syncs returns how many syncs have been interposed so far.
func (i *Injector) Syncs() uint64 {
	if i == nil {
		return 0
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.syncs
}

// Hits returns how many times the named point has been reached.
func (i *Injector) Hits(point string) uint64 {
	if i == nil {
		return 0
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.hits[point]
}

// Hit registers reaching a named instrumentation point (e.g. the head of a
// group commit). If a crash is armed at this point and the ordinal matches,
// the injector enters the crashed state; the caller's next injected I/O
// fails with ErrCrashed.
func (i *Injector) Hit(point string) {
	if i == nil {
		return
	}
	i.mu.Lock()
	if i.hits == nil {
		i.hits = make(map[string]uint64)
	}
	i.hits[point]++
	if i.crashPoint == point && i.hits[point] == i.crashHit {
		i.crash()
	}
	i.mu.Unlock()
}

// Write interposes f.Write(b) per the schedule. A failing write reports how
// many bytes it actually tore into the file alongside the error, matching
// the contract of a real short write.
func (i *Injector) Write(f *os.File, b []byte) (int, error) {
	if i == nil {
		return f.Write(b)
	}
	i.mu.Lock()
	i.writes++
	n := i.writes
	if d := i.slowWrite; d > 0 {
		i.mu.Unlock()
		time.Sleep(d)
		i.mu.Lock()
	}
	if i.crashed {
		i.mu.Unlock()
		return 0, ErrCrashed
	}
	if i.crashWriteAt != 0 && n >= i.crashWriteAt {
		torn := i.crashTorn
		i.crash()
		i.mu.Unlock()
		wrote := 0
		if torn > 0 {
			if torn > len(b) {
				torn = len(b)
			}
			wrote, _ = f.Write(b[:torn])
		}
		return wrote, fmt.Errorf("write %d: %w", n, ErrCrashed)
	}
	if n >= i.failWriteFrom && n < i.failWriteFrom+i.failWriteN {
		torn, err := i.tornBytes, i.writeErr
		i.mu.Unlock()
		wrote := 0
		if torn > 0 {
			if torn > len(b) {
				torn = len(b)
			}
			wrote, _ = f.Write(b[:torn])
		}
		return wrote, fmt.Errorf("write %d: %w", n, err)
	}
	i.mu.Unlock()
	return f.Write(b)
}

// Sync interposes f.Sync() per the schedule.
func (i *Injector) Sync(f *os.File) error {
	if i == nil {
		return f.Sync()
	}
	i.mu.Lock()
	i.syncs++
	n := i.syncs
	if i.crashed {
		i.mu.Unlock()
		return ErrCrashed
	}
	if n >= i.failSyncFrom && n < i.failSyncFrom+i.failSyncN {
		err := i.syncErr
		i.mu.Unlock()
		return fmt.Errorf("sync %d: %w", n, err)
	}
	i.mu.Unlock()
	return f.Sync()
}

// Truncate interposes f.Truncate(size). After a crash it fails without
// touching the file: a dead process cannot clean up its torn tail, and
// recovery must cope with what is on disk.
func (i *Injector) Truncate(f *os.File, size int64) error {
	if i == nil {
		return f.Truncate(size)
	}
	i.mu.Lock()
	crashed := i.crashed
	i.mu.Unlock()
	if crashed {
		return ErrCrashed
	}
	return f.Truncate(size)
}
