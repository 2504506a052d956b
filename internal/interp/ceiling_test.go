package interp_test

import (
	"errors"
	"runtime"
	"testing"

	"acctee/internal/interp"
	"acctee/internal/wasm"
)

// allocated reports the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestTableMinimumCeiling: a table section of a few bytes can declare 2^32-1
// entries, and the table template is allocated at the declared minimum.
// Compile refuses a minimum above MaxTableEntries with ErrTableTooLarge
// before allocating it, at a cost under 1 MiB.
func TestTableMinimumCeiling(t *testing.T) {
	for _, tc := range []struct {
		name string
		min  uint32
		ok   bool
	}{
		{"2^32-1 entries", 1<<32 - 1, false},
		{"2^24 entries (64 MiB)", 1 << 24, false},
		{"one past the ceiling", interp.MaxTableEntries + 1, false},
		{"16 entries", 16, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := &wasm.Module{Tables: []wasm.Table{{Limits: wasm.Limits{Min: tc.min}}}}
			var err error
			got := allocated(func() { _, err = interp.Compile(m, interp.CompileOptions{}) })
			if tc.ok {
				if err != nil {
					t.Fatalf("a %d-entry table: %v", tc.min, err)
				}
				return
			}
			if !errors.Is(err, interp.ErrTableTooLarge) {
				t.Errorf("err = %v, want ErrTableTooLarge", err)
			}
			if got >= 1<<20 {
				t.Errorf("refusing a %d-entry table allocated %d bytes", tc.min, got)
			}
		})
	}
}

// TestMemoryMinimumCeiling: Config.MaxPages caps memory, so an instance
// whose module declares more initial pages than that is refused with
// ErrMemoryTooLarge before its memory is allocated — by Instantiate and by
// a pool's Get — instead of starting above its own ceiling.
func TestMemoryMinimumCeiling(t *testing.T) {
	for _, tc := range []struct {
		name          string
		min, maxPages uint32
		ok            bool
	}{
		{"65536 pages (4 GiB) under a 1-page cap", 65536, 1, false},
		{"256 pages (16 MiB) under a 16-page cap", 256, 16, false},
		{"at the cap", 16, 16, true},
		{"no cap", 16, 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := &wasm.Module{Memories: []wasm.Memory{{Limits: wasm.Limits{Min: tc.min}}}}
			cm, err := interp.Compile(m, interp.CompileOptions{})
			if err != nil {
				t.Fatal(err)
			}
			cfg := interp.Config{MaxPages: tc.maxPages}
			pool, err := cm.NewPool(interp.Config{}, interp.PoolConfig{})
			if err != nil {
				t.Fatal(err)
			}
			for how, instantiate := range map[string]func() (*interp.VM, error){
				"Instantiate": func() (*interp.VM, error) { return cm.Instantiate(cfg) },
				"pool Get":    func() (*interp.VM, error) { return pool.Get(cfg) },
			} {
				var vm *interp.VM
				got := allocated(func() { vm, err = instantiate() })
				if tc.ok {
					if err != nil || vm.MemorySize() != tc.min*wasm.PageSize {
						t.Fatalf("%s: %d pages under a cap of %d: %v", how, tc.min, tc.maxPages, err)
					}
					continue
				}
				if !errors.Is(err, interp.ErrMemoryTooLarge) {
					t.Errorf("%s: err = %v, want ErrMemoryTooLarge", how, err)
				}
				if got >= 1<<20 {
					t.Errorf("%s: refusing %d pages allocated %d bytes", how, tc.min, got)
				}
			}
		})
	}
}
