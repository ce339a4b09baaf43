package mem

import (
	"testing"
	"testing/quick"
)

func TestLineGeometry(t *testing.T) {
	if LineOf(0) != 0 || LineOf(15) != 0 || LineOf(16) != 1 || LineOf(31) != 1 {
		t.Error("LineOf boundaries wrong")
	}
	if AddrOf(LineOf(0x1234)) != 0x1230 {
		t.Errorf("AddrOf(LineOf(0x1234)) = %#x, want 0x1230", AddrOf(LineOf(0x1234)))
	}
}

func TestRoundRobinPlacement(t *testing.T) {
	a := NewAllocator(4)
	base := a.Alloc(4 * PageSize)
	for i := 0; i < 4; i++ {
		addr := base + Addr(i*PageSize)
		if a.Home(addr) != i {
			t.Errorf("page %d homed on %d, want %d", i, a.Home(addr), i)
		}
	}
}

func TestNodePlacement(t *testing.T) {
	a := NewAllocator(8)
	for node := 0; node < 8; node++ {
		base := a.AllocOnNode(2*PageSize, node)
		if a.Home(base) != node || a.Home(base+PageSize) != node {
			t.Errorf("AllocOnNode(%d) pages not homed on %d", node, node)
		}
	}
}

func TestSmallAllocationsPackIntoPages(t *testing.T) {
	a := NewAllocator(4)
	first := a.AllocOnNode(40, 2) // rounds to 48
	second := a.AllocOnNode(40, 2)
	if PageOf(first) != PageOf(second) {
		t.Error("two small same-node allocations did not share a page")
	}
	if second != first+48 {
		t.Errorf("second = %#x, want %#x (line-aligned packing)", second, first+48)
	}
	if a.Home(first) != 2 {
		t.Errorf("home = %d, want 2", a.Home(first))
	}
}

func TestDistinctObjectsNeverShareLines(t *testing.T) {
	a := NewAllocator(2)
	x := a.Alloc(1)
	y := a.Alloc(1)
	if LineOf(x) == LineOf(y) {
		t.Error("two allocations share a cache line")
	}
}

func TestUnallocatedReferencePanics(t *testing.T) {
	a := NewAllocator(2)
	defer func() {
		if recover() == nil {
			t.Error("Home on unallocated address did not panic")
		}
	}()
	a.Home(Addr(1 << 40))
}

// mustPanic reports whether f panics.
func mustPanic(f func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	f()
	return false
}

// The page table's edges: page 0 (the sentinel), the first address past
// the last allocated page, and far past it are all unallocated.
func TestPageTableEdges(t *testing.T) {
	a := NewAllocator(3)
	a.Alloc(1)
	a.AllocOnNode(2*PageSize, 2)
	last := a.next - 1 // last byte of the last allocated page
	if !a.Allocated(last) || a.Home(last) != 2 {
		t.Fatalf("last allocated byte %#x: Allocated=%v", uint64(last), a.Allocated(last))
	}
	for _, addr := range []Addr{0, 1, PageSize - 1, a.next, a.next + PageSize - 1, a.next + 1<<30, 1 << 62} {
		if a.Allocated(addr) {
			t.Errorf("Allocated(%#x) = true", uint64(addr))
		}
		if !mustPanic(func() { a.Home(addr) }) {
			t.Errorf("Home(%#x) did not panic", uint64(addr))
		}
		if !mustPanic(func() { a.Frame(addr) }) {
			t.Errorf("Frame(%#x) did not panic", uint64(addr))
		}
	}
}

// Interleaved node-targeted and round-robin allocations: every page keeps
// the home it was placed on, the round-robin cursor only advances for
// round-robin pages, and each node's frames number 0, 1, 2, ... in
// address order.
func TestInterleavedPlacementAndFrames(t *testing.T) {
	a := NewAllocator(3)
	type placed struct {
		addr Addr
		home int
	}
	var pages []placed
	pages = append(pages, placed{a.Alloc(PageSize), 0})
	pages = append(pages, placed{a.AllocOnNode(PageSize, 2), 2})
	pages = append(pages, placed{a.Alloc(PageSize), 1})
	pages = append(pages, placed{a.AllocOnNode(100, 0), 0})
	pages = append(pages, placed{a.Alloc(2 * PageSize), 2})
	pages = append(pages, placed{pages[len(pages)-1].addr + PageSize, 0})
	pages = append(pages, placed{a.AllocOnNode(100, 0), 0}) // packs into node 0's partial page
	pages = append(pages, placed{a.Alloc(10), 1})
	nextFrame := make([]int, 3)
	seen := map[uint64]bool{}
	for i, p := range pages {
		home, num := a.Frame(p.addr)
		if home != p.home || a.Home(p.addr) != p.home {
			t.Errorf("page %d at %#x homed on %d, want %d", i, uint64(p.addr), home, p.home)
		}
		if seen[PageOf(p.addr)] {
			continue
		}
		seen[PageOf(p.addr)] = true
		if num != nextFrame[home] {
			t.Errorf("page %d at %#x is frame %d on node %d, want %d", i, uint64(p.addr), num, home, nextFrame[home])
		}
		nextFrame[home]++
	}
}

func TestAllocatedPredicate(t *testing.T) {
	a := NewAllocator(2)
	base := a.Alloc(100)
	if !a.Allocated(base) {
		t.Error("Allocated(base) = false")
	}
	if a.Allocated(Addr(1 << 40)) {
		t.Error("Allocated(garbage) = true")
	}
}

func TestTotalBytesTracksLineRounded(t *testing.T) {
	a := NewAllocator(4)
	a.Alloc(10)          // -> 16
	a.AllocOnNode(17, 1) // -> 32
	if a.TotalBytes() != 48 {
		t.Errorf("TotalBytes = %d, want 48", a.TotalBytes())
	}
}

// Property: every allocation is line-aligned, every byte in it maps to the
// requested node (for node allocs), and allocations never overlap.
func TestAllocatorProperties(t *testing.T) {
	type alloc struct{ base, end Addr }
	f := func(sizes []uint16, nodeSel []uint8) bool {
		a := NewAllocator(16)
		var all []alloc
		for i, s := range sizes {
			size := int(s)%9000 + 1
			var base Addr
			node := -1
			if i < len(nodeSel) {
				node = int(nodeSel[i]) % 16
			}
			if node >= 0 {
				base = a.AllocOnNode(size, node)
			} else {
				base = a.Alloc(size)
			}
			if base%LineSize != 0 {
				return false
			}
			rounded := Addr((size + LineSize - 1) / LineSize * LineSize)
			end := base + rounded
			if node >= 0 {
				for p := PageOf(base); p <= PageOf(end-1); p++ {
					if a.Home(Addr(p*PageSize)) != node {
						return false
					}
				}
			}
			for _, prev := range all {
				if base < prev.end && prev.base < end {
					return false // overlap
				}
			}
			all = append(all, alloc{base, end})
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
