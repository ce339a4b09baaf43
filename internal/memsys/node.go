package memsys

import (
	"fmt"
	"sort"

	"latsim/internal/check"
	"latsim/internal/config"
	"latsim/internal/dirset"
	"latsim/internal/mem"
	"latsim/internal/obs"
	"latsim/internal/obs/span"
	"latsim/internal/sim"
	"latsim/internal/stats"
)

// dirState is the directory state of a memory line at its home node.
type dirState int

const (
	// DirUncached: no cache holds the line; memory is up to date.
	DirUncached dirState = iota
	// DirShared: one or more caches hold read-only copies.
	DirShared
	// DirDirty: exactly one cache holds an exclusive, dirty copy.
	DirDirty
)

// dirEntry is the directory entry for one line. The sharer set's
// representation is picked by Config.DirOrg (exact full-map by default;
// limited-pointer and coarse-vector for scaled machines) and always
// holds a superset of the nodes with shared copies.
type dirEntry struct {
	state   dirState
	sharers dirset.Set // nodes with (potential) shared copies
	owner   int        // owning node when state == DirDirty

	// busy serializes ownership-transfer transactions on the line: while
	// a forwarded request is in flight to the owner, later requests for
	// the line (miss records and writebacks at their directory stage)
	// queue in pending and re-arbitrate for the controller when the
	// owner's completion notice arrives (DASH's request-pending behaviour).
	// dirUnbusy empties pending in place, so its storage is reused by the
	// next batch.
	busy    bool
	pending []sim.Actor
}

// linesPerPage is the number of directory entries in one page.
const linesPerPage = mem.PageSize / mem.LineSize

// dirPage holds the directory entries of one page homed at a node,
// indexed by line within the page. Entries are created on first touch.
type dirPage struct {
	base  mem.Line // the page's first line
	lines [linesPerPage]*dirEntry
}

// mshrKind distinguishes what created an outstanding-miss register.
type mshrKind int

const (
	mshrRead mshrKind = iota
	mshrWrite
	mshrPrefetch
	mshrPrefetchExcl
)

// mshr tracks one outstanding transaction for a line (the lockup-free
// cache's miss-status holding register). At most one transaction per line
// per node is in flight; later demands merge as waiters and protocol
// messages that arrive early queue until the fill completes.
//
// The mshr is a sim.Actor: it carries its own transaction through the bus,
// network, directory and fill stages (see the stage machine in trans.go),
// so a miss schedules no closures on its critical path.
type mshr struct {
	n           *Node    // requesting node
	a           mem.Addr // requested address
	line        mem.Line
	kind        mshrKind
	excl        bool // completes with ownership (Dirty install)
	stage       mshrStage
	started     sim.Time
	waiters     []sim.Actor
	queuedMsgs  []sim.Actor
	invalidated bool // an invalidation arrived while in flight

	// span traces the transaction when it was sampled (nil otherwise).
	// An adopted span belongs to the write-buffer entry that started the
	// transaction; the entry ends it at retirement, the mshr must not.
	span        *span.Span
	spanAdopted bool
}

// victimEntry is a dirty line evicted from the secondary cache whose
// writeback has not yet been acknowledged by the home node. The data is
// still available here, so forwarded requests can be serviced from it.
// It is a sim.Actor carrying its own writeback transaction to the home
// and back.
type victimEntry struct {
	n       *Node
	line    mem.Line
	stage   vbStage
	waiters []sim.Actor // local accesses waiting for the writeback to clear
	span    *span.Span
}

// vbStage is the writeback transaction's next step when its event fires.
type vbStage uint8

const (
	vbToHome vbStage = iota // node bus granted: send to the home
	vbAtHome                // delivered at the home: queue for the controller
	vbDir                   // memory/directory controller granted
	vbAcked                 // home's acknowledgement delivered back
)

// Act implements sim.Actor.
func (v *victimEntry) Act() {
	switch v.stage {
	case vbToHome:
		h := v.n.home(mem.AddrOf(v.line))
		v.stage = vbAtHome
		v.span.Seg(span.KSegNet, v.n.id)
		v.n.send(h, v.n.lat().Wire, v, v.span)
	case vbAtHome:
		h := v.n.home(mem.AddrOf(v.line))
		v.stage = vbDir
		v.span.Seg(span.KSegDir, h.id)
		h.memc.AcquireTask(sim.Time(h.lat().MemHold), v)
	case vbDir:
		v.n.home(mem.AddrOf(v.line)).dirWriteback(v)
	case vbAcked:
		v.n.writebackAcked(v)
	}
}

// Class is the pre-classification of an access, used by the processor to
// decide between continuing, a short no-switch stall, a long stall, or a
// context switch.
type Class int

const (
	// ClassPrimary: read hit in the primary cache (1 cycle).
	ClassPrimary Class = iota
	// ClassSecondary: serviced by the secondary cache (short stall: a
	// 13-cycle read fill or a 2-cycle owned write).
	ClassSecondary
	// ClassMiss: leaves the secondary cache (long latency; multiple-
	// context processors switch).
	ClassMiss
)

// Node is one processing node's complete memory system: caches, buffers,
// the slice of the distributed directory it is home for, and its bus and
// network-interface resources.
type Node struct {
	id    int
	k     *sim.Kernel
	cfg   *config.Config
	alloc *mem.Allocator
	st    *stats.Proc
	nodes []*Node // all nodes in the machine, including self

	prim *primaryCache
	sec  *secondaryCache
	// dir is this node's slice of the distributed directory, indexed by
	// the frame number of each page homed here (mem.Allocator.Frame). A
	// page's block is allocated when one of its lines is first touched,
	// so storage follows the pages in use.
	dir []*dirPage

	mshrs   lineTable[mshr]
	victims lineTable[victimEntry]

	bus   *sim.Resource
	memc  *sim.Resource // memory + directory controller
	niIn  *sim.Resource
	niOut *sim.Resource

	pendingAcks int
	ackWaiters  []sim.Actor

	primBusyUntil sim.Time
	primBusyPF    bool

	wb   *writeBuffer
	pf   *prefetchBuffer
	mesh *Mesh          // optional 2-D mesh interconnect (nil = direct network)
	rec  *obs.Recorder  // optional observability recorder (nil = off)
	chk  *check.Checker // optional coherence invariant checker (nil = off)

	// syncDepth is > 0 while a synchronization primitive issues memory
	// accesses through this node, so their sampled spans classify as
	// sync transactions. spanAdopt hands a write-buffer entry's span to
	// the ownership transaction it drains into (set and cleared around
	// the AcquireOwnershipTask call; see DESIGN.md's span lifecycle contract).
	syncDepth int
	spanAdopt *span.Span

	// Free lists for the transient transaction records on the hot paths.
	// They are per-node (per-kernel), matching the kernel's single-threaded
	// discipline — the runner simulates many machines concurrently, so
	// package-level pools would race.
	msgs         sim.Pool[netMsg]
	mshrPool     sim.Pool[mshr]
	secFills     sim.Pool[secFill]
	uncachedPool sim.Pool[uncachedOp]
	invals       sim.Pool[invalMsg]
	victimPool   sim.Pool[victimEntry]
	fwds         sim.Pool[fwdMsg]
	retries      sim.Pool[retryOp]
}

// NewNode constructs node id. Call Connect with the full node slice before
// simulating.
func NewNode(k *sim.Kernel, id int, cfg *config.Config, alloc *mem.Allocator, st *stats.Proc) *Node {
	n := &Node{
		id:    id,
		k:     k,
		cfg:   cfg,
		alloc: alloc,
		st:    st,
		prim:  newPrimaryCache(cfg.PrimaryBytes),
		sec:   newSecondaryCache(cfg.SecondaryBytes, max(1, cfg.SecondaryWays)),
		bus:   sim.NewResource(k, fmt.Sprintf("bus%d", id)),
		memc:  sim.NewResource(k, fmt.Sprintf("mem%d", id)),
		niIn:  sim.NewResource(k, fmt.Sprintf("niIn%d", id)),
		niOut: sim.NewResource(k, fmt.Sprintf("niOut%d", id)),
	}
	n.wb = newWriteBuffer(n)
	n.pf = newPrefetchBuffer(n)
	return n
}

// Connect wires the node to the rest of the machine.
func (n *Node) Connect(nodes []*Node) { n.nodes = nodes }

// SetObs installs an observability recorder (nil disables, the default).
// Hooks are nil-guarded pointer checks per the DESIGN.md contract.
func (n *Node) SetObs(rec *obs.Recorder) { n.rec = rec }

// spans returns the transaction tracer, nil when span tracing is off
// (every tracer and span method is safe on a nil receiver).
func (n *Node) spans() *span.Tracer {
	if n.rec == nil {
		return nil
	}
	return n.rec.Spans
}

// BeginSyncSpans and EndSyncSpans bracket the memory accesses a
// synchronization primitive issues on this node, so the transactions
// created inside trace as sync rather than plain reads/writes. Calls
// nest; the bracket is two integer ops, cheap enough to run
// unconditionally.
func (n *Node) BeginSyncSpans() { n.syncDepth++ }
func (n *Node) EndSyncSpans()   { n.syncDepth-- }

// spanKind classifies a new transaction for tracing.
func (n *Node) spanKind(kind mshrKind) span.Kind {
	if n.syncDepth > 0 {
		return span.KTxnSync
	}
	switch kind {
	case mshrRead:
		return span.KTxnRead
	case mshrWrite:
		return span.KTxnWrite
	}
	return span.KTxnPrefetch
}

// ID returns the node number.
func (n *Node) ID() int { return n.id }

// lat is shorthand for the latency parameters.
func (n *Node) lat() *config.Latencies { return &n.cfg.Lat }

// home returns the home node for an address.
func (n *Node) home(a mem.Addr) *Node { return n.nodes[n.alloc.Home(a)] }

// IsLocal reports whether this node is the home of a (the access can be
// serviced without network traffic).
func (n *Node) IsLocal(a mem.Addr) bool { return n.alloc.Home(a) == n.id }

// entry returns (creating if needed) the directory entry for a line homed
// at this node.
func (n *Node) entry(l mem.Line) *dirEntry {
	_, f := n.alloc.Frame(mem.AddrOf(l))
	if f >= len(n.dir) {
		n.dir = append(n.dir, make([]*dirPage, f+1-len(n.dir))...)
	}
	i := l % linesPerPage
	p := n.dir[f]
	if p == nil {
		p = &dirPage{base: l - i}
		n.dir[f] = p
	}
	e := p.lines[i]
	if e == nil {
		e = &dirEntry{state: DirUncached, sharers: n.newSharerSet()}
		p.lines[i] = e
	}
	return e
}

// lookup returns the directory entry for line l if this node is its home
// and the line has one, nil otherwise. It creates nothing.
func (n *Node) lookup(l mem.Line) *dirEntry {
	home, f := n.alloc.Frame(mem.AddrOf(l))
	if home != n.id || f >= len(n.dir) || n.dir[f] == nil {
		return nil
	}
	return n.dir[f].lines[l%linesPerPage]
}

// newSharerSet builds an empty sharer set in the configured organization
// for this machine's size.
func (n *Node) newSharerSet() dirset.Set {
	return dirset.New(n.cfg.DirOrg, len(n.nodes), n.cfg.DirPointers, n.cfg.DirCoarseness)
}

// lineTable maps the lines a node has in flight to their transaction
// records. A node has a handful at most (bounded by its contexts and its
// write and prefetch buffers), so a scan of a short slice replaces a hash
// lookup. Order carries no meaning: del moves the last record into the
// hole.
type lineTable[T any] struct {
	recs []lineRec[T]
}

type lineRec[T any] struct {
	line mem.Line
	rec  *T
}

// get returns the record for line l, if any.
func (t *lineTable[T]) get(l mem.Line) (*T, bool) {
	for i := range t.recs {
		if t.recs[i].line == l {
			return t.recs[i].rec, true
		}
	}
	return nil, false
}

// add records r for line l, which must have no record yet.
func (t *lineTable[T]) add(l mem.Line, r *T) { t.recs = append(t.recs, lineRec[T]{l, r}) }

// del removes line l's record, if any.
func (t *lineTable[T]) del(l mem.Line) {
	for i := range t.recs {
		if t.recs[i].line == l {
			last := len(t.recs) - 1
			t.recs[i] = t.recs[last]
			t.recs[last] = lineRec[T]{}
			t.recs = t.recs[:last]
			return
		}
	}
}

func (t *lineTable[T]) len() int { return len(t.recs) }

// netMsg is one in-flight protocol message: an Actor that walks itself
// through NI-out occupancy, the network (the direct network's wire
// latency, or the mesh route) and NI-in occupancy, then runs its delivery
// completion.
type netMsg struct {
	n     *Node // sender
	to    *Node
	wire  int
	stage msgStage
	done  sim.Actor
	span  *span.Span // the sending transaction's span (mesh link children)
}

// msgStage is the message's next step when its event fires.
type msgStage uint8

const (
	msgPostOut  msgStage = iota // NI-out granted: cross the network
	msgPostWire                 // network crossed: queue at receiver's NI-in
	msgDeliver                  // NI-in granted: deliver
)

// Act implements sim.Actor.
func (m *netMsg) Act() {
	switch m.stage {
	case msgPostOut:
		m.stage = msgPostWire
		sp := m.span
		m.span = nil
		if mesh := m.n.mesh; mesh != nil {
			mesh.Route(m.n.id, m.to.id, sp, m)
			return
		}
		m.n.k.AfterTask(sim.Time(m.wire), m)
	case msgPostWire:
		m.stage = msgDeliver
		m.to.niIn.AcquireTask(sim.Time(m.n.lat().NIHold), m)
	case msgDeliver:
		d := m.done
		m.done = nil
		m.n.msgs.Put(m)
		d.Act()
	}
}

// send models a protocol message from node n to node to: NI-out
// occupancy, wire latency, NI-in occupancy, then done at delivery.
// Messages between a node and itself take a short fixed local delay
// instead. sp is the sending transaction's span (nil when untraced), so the
// mesh can open one child per link crossed.
func (n *Node) send(to *Node, wire int, done sim.Actor, sp *span.Span) {
	if to == n {
		n.k.AfterTask(2, done)
		return
	}
	m := n.msgs.Get()
	m.n, m.to, m.wire, m.done, m.span = n, to, wire, done, sp
	m.stage = msgPostOut
	n.niOut.AcquireTask(sim.Time(n.lat().NIHold), m)
}

// hopCycles is the no-contention cost of one full network hop.
func (n *Node) hopCycles() int { return 2*n.lat().NIHold + n.lat().Wire }

// ClassifyRead classifies a shared read to addr without changing state.
func (n *Node) ClassifyRead(a mem.Addr) Class {
	if !n.cfg.CacheShared {
		return ClassMiss
	}
	l := mem.LineOf(a)
	if n.prim.Present(l) {
		return ClassPrimary
	}
	if n.sec.State(l) != Invalid {
		return ClassSecondary
	}
	return ClassMiss
}

// ClassifyWrite classifies a shared write (for SC stall decisions).
func (n *Node) ClassifyWrite(a mem.Addr) Class {
	if !n.cfg.CacheShared {
		return ClassMiss
	}
	if n.sec.State(mem.LineOf(a)) == Dirty {
		return ClassSecondary
	}
	return ClassMiss
}

// PrimaryBusy reports whether the primary cache port is locked out by a
// fill at time now, when it frees, and whether the fill was a prefetch
// (for overhead attribution).
func (n *Node) PrimaryBusy(now sim.Time) (until sim.Time, pf bool, busy bool) {
	if now < n.primBusyUntil {
		return n.primBusyUntil, n.primBusyPF, true
	}
	return 0, false, false
}

// lockPrimary records a primary-cache fill occupying the port until t.
func (n *Node) lockPrimary(t sim.Time, pf bool) {
	if t > n.primBusyUntil {
		n.primBusyUntil = t
		n.primBusyPF = pf
	}
}

// PendingAcks returns the number of invalidation acknowledgements this
// node is still waiting for.
func (n *Node) PendingAcks() int { return n.pendingAcks }

// onAllAcked runs a once pendingAcks reaches zero (immediately if it
// already is).
func (n *Node) onAllAcked(a sim.Actor) {
	if n.pendingAcks == 0 {
		a.Act()
		return
	}
	n.ackWaiters = append(n.ackWaiters, a)
}

func (n *Node) addAcks(count int) { n.pendingAcks += count }

func (n *Node) ackArrived() {
	if n.pendingAcks <= 0 {
		panic("memsys: ack arrived with none pending")
	}
	n.pendingAcks--
	if n.pendingAcks == 0 {
		// Acks are only added by a directory event, so the count stays
		// zero while the waiters run and onAllAcked runs any they
		// register at once: nothing joins the list while it is walked,
		// and it keeps its storage.
		for i, w := range n.ackWaiters {
			n.ackWaiters[i] = nil
			w.Act()
		}
		n.ackWaiters = n.ackWaiters[:0]
	}
}

// CheckInvariants validates directory/cache consistency at a quiescent
// point (no in-flight transactions): every cached copy must be sanctioned
// by its home directory, and every dirty directory entry must have exactly
// its owner caching the line in Dirty state. Returns an error describing
// the first violation.
func CheckInvariants(nodes []*Node) error {
	for _, node := range nodes {
		if node.mshrs.len() != 0 {
			return fmt.Errorf("node %d has %d in-flight MSHRs at quiescence", node.id, node.mshrs.len())
		}
		if node.victims.len() != 0 {
			return fmt.Errorf("node %d has %d unacknowledged writebacks at quiescence", node.id, node.victims.len())
		}
		if node.pendingAcks != 0 {
			return fmt.Errorf("node %d has %d pending acks at quiescence", node.id, node.pendingAcks)
		}
	}
	var err error
	for _, node := range nodes {
		node.sec.forEachValid(func(l mem.Line, st LineState) {
			if err != nil {
				return
			}
			home := nodes[node.alloc.Home(mem.AddrOf(l))]
			e := home.lookup(l)
			if e == nil {
				err = fmt.Errorf("node %d caches line %#x with no directory entry", node.id, l)
				return
			}
			switch st {
			case Shared:
				if e.state == DirDirty {
					err = fmt.Errorf("node %d has Shared copy of line %#x but directory says Dirty(owner %d)", node.id, l, e.owner)
				} else if !e.sharers.Contains(node.id) {
					err = fmt.Errorf("node %d has Shared copy of line %#x but is not in sharer set", node.id, l)
				}
			case Dirty:
				if e.state != DirDirty || e.owner != node.id {
					err = fmt.Errorf("node %d has Dirty copy of line %#x but directory state=%d owner=%d", node.id, l, e.state, e.owner)
				}
			}
		})
		if err != nil {
			return err
		}
		// Inclusion: every primary line must be in the secondary.
		for i, tag := range node.prim.sets {
			if tag != 0 && node.sec.State(tag) == Invalid {
				return fmt.Errorf("node %d primary set %d holds line %#x not in secondary (inclusion violated)", node.id, i, tag)
			}
		}
	}
	// Dirty directory entries must have exactly one Dirty cached copy.
	// Frames and the lines within a page both run in address order, so the
	// scan visits each home's lines in ascending order and the first
	// violation reported is deterministic.
	for _, home := range nodes {
		for _, p := range home.dir {
			if p == nil {
				continue
			}
			for i, e := range p.lines {
				if e == nil || e.state != DirDirty {
					continue
				}
				l := p.base + mem.Line(i)
				owner := nodes[e.owner]
				if owner.sec.State(l) != Dirty {
					return fmt.Errorf("directory at node %d says line %#x dirty at node %d, but that cache has state %v",
						home.id, l, e.owner, owner.sec.State(l))
				}
			}
		}
	}
	return nil
}

// BusUtilization returns the node bus utilization (for reports).
func (n *Node) BusUtilization() float64 { return n.bus.Utilization() }

// CacheSnapshot returns the node's valid secondary-cache lines as
// deterministic "line:state" strings, sorted by line. Tests use it to
// assert that different directory organizations converge to the same
// final memory state.
func (n *Node) CacheSnapshot() []string {
	var lines []string
	n.sec.forEachValid(func(l mem.Line, st LineState) {
		lines = append(lines, fmt.Sprintf("%#x:%d", uint64(l), int(st)))
	})
	sort.Strings(lines)
	return lines
}
