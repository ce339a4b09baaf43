package memsys

import (
	"testing"

	"latsim/internal/mem"
)

// The memsys microbenchmarks drive Node directly, with no processors, so
// one protocol transaction's host cost (ns/op and allocs/op) is visible
// on its own. Completions are a prebuilt Actor, as the processor's are:
// every benchmark must report 0 allocs/op. The repo benchmark
// (BENCHMARK.json, hostbench/) tracks the same transactions as its
// probe.memsys metrics.

// nopActor is a prebuilt completion.
type nopActor struct{}

func (nopActor) Act() {}

// region allocates lines consecutive lines homed on node home.
func (r *rig) region(home, lines int) []mem.Addr {
	base := r.alloc.AllocOnNode(lines*mem.LineSize, home)
	out := make([]mem.Addr, lines)
	for i := range out {
		out[i] = base + mem.Addr(i*mem.LineSize)
	}
	return out
}

func (r *rig) read(node int, a mem.Addr) {
	r.nodes[node].ReadTask(a, nopActor{})
	r.k.Run(nil)
}

func (r *rig) own(node int, a mem.Addr) {
	r.nodes[node].AcquireOwnershipTask(a, nopActor{})
	r.k.Run(nil)
}

// benchMiss: one op is a demand read by node 0 of a clean line homed on
// node home, run to completion. The lines cycle through a region four
// times the secondary cache, so every read misses; one warm-up pass
// creates the directory entries and fills the free lists.
func benchMiss(b *testing.B, home int) {
	r := newRig(16, nil)
	lines := r.region(home, 4*r.cfg.SecondaryBytes/mem.LineSize)
	for _, a := range lines {
		r.read(0, a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := lines[i%len(lines)]
		if r.nodes[0].ClassifyRead(a) != ClassMiss {
			b.Fatalf("line %#x did not miss", a)
		}
		r.read(0, a)
	}
}

// BenchmarkNodeLocalMiss: a read miss to the requester's own memory.
func BenchmarkNodeLocalMiss(b *testing.B) { benchMiss(b, 0) }

// BenchmarkNodeRemoteClean: a read miss to a clean line in a remote home.
func BenchmarkNodeRemoteClean(b *testing.B) { benchMiss(b, 1) }

// benchBatches runs b.N ops in batches over lines: prepare (untimed) puts
// every line into the op's starting state, then op runs once per line.
func benchBatches(b *testing.B, lines []mem.Addr, prepare func(a mem.Addr), op func(a mem.Addr)) {
	for _, a := range lines { // warm-up batch
		prepare(a)
	}
	for _, a := range lines {
		op(a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		b.StopTimer()
		for _, a := range lines {
			prepare(a)
		}
		b.StartTimer()
		for _, a := range lines {
			if done == b.N {
				break
			}
			op(a)
			done++
		}
	}
}

// BenchmarkNodeDirty3Hop: a read by node 0 of a line homed on node 1 and
// dirty in node 2's cache: request to the home, forward to the owner,
// reply to the requester and the owner's completion notice to the home.
func BenchmarkNodeDirty3Hop(b *testing.B) {
	r := newRig(16, nil)
	benchBatches(b, r.region(1, 64),
		func(a mem.Addr) { r.own(2, a) },
		func(a mem.Addr) { r.read(0, a) })
}

// BenchmarkNodeUpgradeInv8: an ownership request by node 0 for a line it
// shares with 8 other nodes, run to completion including the 8
// invalidations and their acknowledgements.
func BenchmarkNodeUpgradeInv8(b *testing.B) {
	r := newRig(16, nil)
	benchBatches(b, r.region(15, 64),
		func(a mem.Addr) {
			for n := 0; n <= 8; n++ {
				if r.nodes[n].ClassifyRead(a) != ClassPrimary {
					r.read(n, a)
				}
			}
		},
		func(a mem.Addr) { r.own(0, a) })
}
