// Package mem defines the simulated shared address space: addresses,
// cache-line and page geometry, and the distributed physical memory
// allocator that maps pages to home nodes.
//
// Physical memory is distributed among the nodes. Unless the application
// asks for placement on a specific node, pages are allocated round-robin
// across all nodes, matching the paper's default policy. Applications
// that optimize locality (MP3D particles, LU owned columns) allocate from
// the shared memory of a specific processor's node.
package mem

import "fmt"

// Addr is a simulated shared-memory address. The simulator models timing
// and coherence state, not data contents; applications keep their data in
// native Go structures and issue references to these addresses.
type Addr uint64

const (
	// LineSize is the cache line size in bytes (16-byte lines in the
	// paper, i.e. four 32-bit words).
	LineSize = 16
	// PageSize is the allocation/placement granularity.
	PageSize = 4096
)

// Line identifies a cache line (an address with the offset stripped).
type Line uint64

// LineOf returns the cache line containing a.
func LineOf(a Addr) Line { return Line(a / LineSize) }

// AddrOf returns the base address of line l.
func AddrOf(l Line) Addr { return Addr(l) * LineSize }

// PageOf returns the page number containing a.
func PageOf(a Addr) uint64 { return uint64(a) / PageSize }

// arena is a partially used page owned by one placement domain.
type arena struct {
	cur  Addr // next free byte in the current page; 0 if none
	left int  // bytes remaining in the current page
}

// frame is one page-table entry: the page's home node and its frame
// number there (the page's ordinal among the pages homed on that node,
// in address order). home is -1 for a page that is not allocated.
type frame struct {
	home, num int32
}

// Allocator hands out simulated shared memory and records the home node of
// every allocated page. Small allocations from the same placement domain
// (a specific node, or the round-robin pool) pack into shared pages at
// cache-line granularity, so data structures lay out realistically.
//
// Pages are bump-allocated from PageSize upward, so page numbers are
// dense: the page table is a slice indexed by page number, and looking up
// a home is one bounds check and one load. Page 0 is never allocated
// (address 0 stays invalid); its entry is the "not allocated" sentinel.
// Each node's pages are also numbered densely in address order (their
// frame numbers), so a home node can keep per-page state in a slice.
type Allocator struct {
	nodes  int
	next   Addr    // next fresh page
	rrNode int     // next node for round-robin page placement
	pages  []frame // page table, indexed by page number
	frames []int32 // pages placed on each node so far

	perNode []arena // partial pages for node-targeted allocation
	rr      arena   // partial page for round-robin small allocations

	total uint64 // sum of line-aligned allocation sizes (Table 2)
}

// NewAllocator creates an allocator for a machine with the given number of
// nodes.
func NewAllocator(nodes int) *Allocator {
	if nodes <= 0 {
		panic("mem: allocator needs at least one node")
	}
	return &Allocator{
		nodes:   nodes,
		next:    PageSize, // keep address 0 invalid
		pages:   []frame{{home: -1}},
		frames:  make([]int32, nodes),
		perNode: make([]arena, nodes),
	}
}

// Alloc allocates size bytes of shared memory with round-robin page
// placement and returns the base (line-aligned) address.
func (a *Allocator) Alloc(size int) Addr {
	return a.alloc(size, -1)
}

// AllocOnNode allocates size bytes with all pages homed on node.
func (a *Allocator) AllocOnNode(size, node int) Addr {
	if node < 0 || node >= a.nodes {
		panic(fmt.Sprintf("mem: AllocOnNode: node %d out of range [0,%d)", node, a.nodes))
	}
	return a.alloc(size, node)
}

func (a *Allocator) alloc(size, node int) Addr {
	if size <= 0 {
		panic("mem: allocation size must be positive")
	}
	// Round up to line granularity so distinct objects never share lines
	// unintentionally.
	size = (size + LineSize - 1) / LineSize * LineSize
	a.total += uint64(size)

	if size >= PageSize {
		// Whole pages: page-aligned, each page placed.
		base := a.next
		pages := (size + PageSize - 1) / PageSize
		for i := 0; i < pages; i++ {
			a.placePage(node)
		}
		return base
	}

	ar := &a.rr
	if node >= 0 {
		ar = &a.perNode[node]
	}
	if ar.left < size {
		// Start a new page for this domain.
		ar.cur = a.next
		ar.left = PageSize
		a.placePage(node)
	}
	base := ar.cur
	ar.cur += Addr(size)
	ar.left -= size
	return base
}

// placePage homes the next fresh page on node (round-robin when node < 0)
// and advances next past it.
func (a *Allocator) placePage(node int) {
	if node < 0 {
		node = a.rrNode
		a.rrNode = (a.rrNode + 1) % a.nodes
	}
	a.pages = append(a.pages, frame{home: int32(node), num: a.frames[node]})
	a.frames[node]++
	a.next += PageSize
}

// Home returns the home node of the page containing addr. Referencing
// unallocated memory (page 0, or any page past the last one allocated)
// panics: it always indicates an application bug.
func (a *Allocator) Home(addr Addr) int {
	home, _ := a.Frame(addr)
	return home
}

// Frame returns the home node of the page containing addr and the page's
// frame number there: its ordinal among the pages homed on that node, in
// address order, so a node's frames number 0, 1, 2, ... with no gaps.
// Like Home, it panics on unallocated memory.
func (a *Allocator) Frame(addr Addr) (home, num int) {
	p := PageOf(addr)
	if p >= uint64(len(a.pages)) {
		p = 0 // the sentinel
	}
	f := a.pages[p]
	if f.home < 0 {
		panic(fmt.Sprintf("mem: reference to unallocated address %#x", uint64(addr)))
	}
	return int(f.home), int(f.num)
}

// Allocated reports whether addr lies in allocated memory.
func (a *Allocator) Allocated(addr Addr) bool {
	p := PageOf(addr)
	return p < uint64(len(a.pages)) && a.pages[p].home >= 0
}

// TotalBytes returns the total bytes of shared memory requested
// (line-aligned). This feeds the "Shared Data Size" column of Table 2.
func (a *Allocator) TotalBytes() uint64 { return a.total }

// Nodes returns the number of nodes the allocator distributes over.
func (a *Allocator) Nodes() int { return a.nodes }
