package sim

import "testing"

// The kernel microbenchmarks exercise the event queue in isolation so the
// scheduling cost (ns/op and allocs/op) is visible without the rest of the
// simulator. The repo benchmark (BENCHMARK.json, hostbench/) tracks the
// same cost as its probe.kernel_fire metrics.

// nopActor is a prebuilt pooled-style completion for the benchmarks.
type nopActor struct{}

func (nopActor) Act() {}

// completions are the two shapes a completion takes in the model: a
// pooled object implementing Actor, and a one-off closure through Func.
// Both store one interface value in the event slot, so each benchmark
// runs both and every sub-benchmark must report 0 allocs/op.
var completions = []struct {
	name string
	act  Actor
}{
	{"Actor", nopActor{}},
	{"Func", Func(func() {})},
}

// BenchmarkKernelScheduleFire schedules and fires one event per iteration
// with a prebuilt completion: the steady-state cost of one event through
// the queue.
func BenchmarkKernelScheduleFire(b *testing.B) {
	for _, c := range completions {
		b.Run(c.name, func(b *testing.B) {
			k := NewKernel()
			// Warm the queue so slice growth is out of the measured region.
			for i := 0; i < 64; i++ {
				k.AfterTask(Time(i), c.act)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.AfterTask(8, c.act)
				k.Step()
			}
		})
	}
}

// BenchmarkKernelHeapChurn keeps a deep queue (1024 pending events) and
// measures push+pop through it. Every delay is under 256 cycles, so all
// of them land in the timing wheel: this is the model's common case at a
// deep queue, not the heap path (see BenchmarkKernelFarChurn).
func BenchmarkKernelHeapChurn(b *testing.B) {
	k := NewKernel()
	var a nopActor
	const depth = 1024
	for i := 0; i < depth; i++ {
		// Spread timestamps so the heap actually reorders.
		k.AfterTask(Time(i*7%255), a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.AfterTask(Time(i*13%255+1), a)
		k.Step()
	}
}

// BenchmarkKernelFarChurn is BenchmarkKernelHeapChurn with every delay at
// least the wheel span, so every event takes the spill-heap path, the
// worst case for heap reordering.
func BenchmarkKernelFarChurn(b *testing.B) {
	k := NewKernel()
	var a nopActor
	const depth = 1024
	for i := 0; i < depth; i++ {
		k.AfterTask(wheelSpan+Time(i*7%255), a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.AfterTask(wheelSpan+Time(i*13%255+1), a)
		k.Step()
	}
}

// BenchmarkKernelResource measures a Resource acquire/complete cycle, the
// building block of every contention point in the memory system.
func BenchmarkKernelResource(b *testing.B) {
	for _, c := range completions {
		b.Run(c.name, func(b *testing.B) {
			k := NewKernel()
			r := NewResource(k, "bus")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.AcquireTask(2, c.act)
				k.Step()
			}
		})
	}
}

// BenchmarkCoroutineSwitch measures one app<->kernel handoff: a Resume
// that runs the process to its next Yield, the cost every simulated
// operation pays.
func BenchmarkCoroutineSwitch(b *testing.B) {
	var co *Coroutine
	co = NewCoroutine(func() {
		for {
			co.Yield()
		}
	})
	defer co.Stop()
	co.Resume() // start the body outside the measured region
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		co.Resume()
	}
}
