package workloads_test

import (
	"bytes"
	"math"
	"testing"

	"acctee/internal/instrument"
	"acctee/internal/interp"
	"acctee/internal/wasm/validate"
	"acctee/internal/weights"
	"acctee/internal/workloads"
)

func TestMSieveMatchesNative(t *testing.T) {
	m, err := workloads.BuildMSieve()
	if err != nil {
		t.Fatal(err)
	}
	if err := validate.Module(m); err != nil {
		t.Fatal(err)
	}
	vm, err := interp.Instantiate(m, interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		lo    uint64
		count uint32
	}{
		{10_000_019, 5},    // includes a prime (spf == n)
		{1_000_000, 8},     // small composites
		{2_147_483_640, 4}, // near 2^31
		{999_999_937, 2},   // large prime in range
	}
	for _, tc := range cases {
		res, err := vm.InvokeExport("run", tc.lo, uint64(tc.count))
		if err != nil {
			t.Fatalf("run(%d,%d): %v", tc.lo, tc.count, err)
		}
		want := workloads.NativeMSieve(tc.lo, tc.count)
		if res[0] != want {
			t.Errorf("msieve(%d,%d) = %d, want %d", tc.lo, tc.count, res[0], want)
		}
	}
}

func TestPCMatchesNative(t *testing.T) {
	m, err := workloads.BuildPC(12, 30)
	if err != nil {
		t.Fatal(err)
	}
	if err := validate.Module(m); err != nil {
		t.Fatal(err)
	}
	vm, err := interp.Instantiate(m, interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := vm.InvokeExport("run")
	if err != nil {
		t.Fatal(err)
	}
	want := workloads.NativePC(12, 30)
	if res[0] != want {
		t.Errorf("pc = %#x, want %#x", res[0], want)
	}
	if edges := res[0] >> 32; edges == 0 || edges == 12*11 {
		t.Errorf("degenerate edge count %d — threshold not discriminating", edges)
	}
}

func TestSubsetSumMatchesNative(t *testing.T) {
	m, err := workloads.BuildSubsetSum()
	if err != nil {
		t.Fatal(err)
	}
	vm, err := interp.Instantiate(m, interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ n, target uint32 }{
		{10, 500}, {25, 2000}, {40, 10000},
	} {
		res, err := vm.InvokeExport("run", uint64(tc.n), uint64(tc.target))
		if err != nil {
			t.Fatalf("run(%d,%d): %v", tc.n, tc.target, err)
		}
		want := workloads.NativeSubsetSum(tc.n, tc.target)
		if res[0] != want {
			t.Errorf("subsetsum(%d,%d) = %#x, want %#x", tc.n, tc.target, res[0], want)
		}
	}
}

func TestDarknetMatchesNative(t *testing.T) {
	m, err := workloads.BuildDarknet(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := validate.Module(m); err != nil {
		t.Fatal(err)
	}
	vm, err := interp.Instantiate(m, interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := vm.InvokeExport("run")
	if err != nil {
		t.Fatal(err)
	}
	got := math.Float64frombits(res[0])
	want := workloads.NativeDarknet(16, 4)
	if got != want {
		t.Errorf("darknet = %v, want %v", got, want)
	}
}

func TestEchoMatchesNative(t *testing.T) {
	m, err := workloads.BuildEcho()
	if err != nil {
		t.Fatal(err)
	}
	vm, err := interp.Instantiate(m, interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	payload := workloads.TestImage(16, 16) // 1 KiB
	in, err := vm.MemoryDirty(workloads.InBase, uint32(len(payload)))
	if err != nil {
		t.Fatal(err)
	}
	copy(in, payload)
	res, err := vm.InvokeExport("run", uint64(len(payload)))
	if err != nil {
		t.Fatal(err)
	}
	n := int(uint32(res[0]))
	got, err := vm.MemoryView(workloads.OutBase, uint32(n))
	if err != nil || !bytes.Equal(got, workloads.NativeEcho(payload)) {
		t.Error("echo output differs from input")
	}
}

func TestResizeMatchesNativeAndJS(t *testing.T) {
	m, err := workloads.BuildResize()
	if err != nil {
		t.Fatal(err)
	}
	vm, err := interp.Instantiate(m, interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{64, 128, 200} {
		img := workloads.TestImage(size, size)
		in, err := vm.MemoryDirty(workloads.InBase, uint32(len(img)))
		if err != nil {
			t.Fatal(err)
		}
		copy(in, img)
		res, err := vm.InvokeExport("run", uint64(size), uint64(size))
		if err != nil {
			t.Fatalf("resize %d: %v", size, err)
		}
		n := int(uint32(res[0]))
		if n != workloads.ResizeTarget*workloads.ResizeTarget*4 {
			t.Fatalf("resize output length %d", n)
		}
		got, err := vm.MemoryView(workloads.OutBase, uint32(n))
		want := workloads.NativeResize(img, size, size)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("resize %d: wasm and native outputs differ", size)
		}
		js := workloads.JSResize(img, size, size)
		if !bytes.Equal(js, want) {
			t.Errorf("resize %d: JS baseline output differs", size)
		}
	}
}

func TestJSEcho(t *testing.T) {
	in := workloads.TestImage(8, 8)
	if !bytes.Equal(workloads.JSEcho(in), in) {
		t.Error("JS echo mangled payload")
	}
}

// TestWorkloadsInstrumentedExact checks the exactness invariant on the
// scenario workloads (they exercise call-heavy and bit-twiddling code paths
// the PolyBench kernels do not).
func TestWorkloadsInstrumentedExact(t *testing.T) {
	msieve, err := workloads.BuildMSieve()
	if err != nil {
		t.Fatal(err)
	}
	subset, err := workloads.BuildSubsetSum()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		args []uint64
	}{
		{"msieve", []uint64{1_000_003, 3}},
		{"subsetsum", []uint64{15, 800}},
	} {
		var mod = msieve
		if tc.name == "subsetsum" {
			mod = subset
		}
		ref, err := interp.Instantiate(mod, interp.Config{CostModel: weights.Unit()})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ref.InvokeExport("run", tc.args...); err != nil {
			t.Fatalf("%s ref: %v", tc.name, err)
		}
		want := ref.Cost()
		for _, lvl := range []instrument.Level{instrument.Naive, instrument.FlowBased, instrument.LoopBased} {
			res, err := instrument.Instrument(mod, instrument.Options{Level: lvl})
			if err != nil {
				t.Fatalf("%s %v: %v", tc.name, lvl, err)
			}
			vm, err := interp.Instantiate(res.Module, interp.Config{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := vm.InvokeExport("run", tc.args...); err != nil {
				t.Fatalf("%s %v run: %v", tc.name, lvl, err)
			}
			got, _ := vm.Global(res.CounterGlobal)
			if got != want {
				t.Errorf("%s %v: counter %d != %d", tc.name, lvl, got, want)
			}
		}
	}
}
