package memsys

import (
	"fmt"

	"latsim/internal/obs"
	"latsim/internal/obs/span"
	"latsim/internal/sim"
)

// Mesh is an optional 2-D wormhole-routed interconnect, the topology of
// the real DASH machine. The default network model is "direct" (a
// constant-latency hop calibrated to Table 1); the mesh replaces it with
// dimension-ordered X-then-Y routing over per-link resources, so latency
// grows with Manhattan distance and traffic contends for individual
// links. Used by the network-topology ablation.
type Mesh struct {
	k     *sim.Kernel
	w, h  int
	nodes int
	hop   int             // router + wire cycles per hop
	occ   int             // link occupancy per message (flits)
	links []*sim.Resource // directed neighbor edges, 4 per node (see slot)
	rec   *obs.Recorder   // optional observability recorder (nil = off)

	routes sim.Pool[meshRoute]
}

// SetObs installs an observability recorder on the mesh (nil disables).
func (m *Mesh) SetObs(rec *obs.Recorder) { m.rec = rec }

// NewMesh builds a near-square mesh for the given node count. hop is the
// per-hop latency in cycles and occ the per-link occupancy per message.
func NewMesh(k *sim.Kernel, nodes, hop, occ int) *Mesh {
	w := 1
	for w*w < nodes {
		w++
	}
	h := (nodes + w - 1) / w
	m := &Mesh{k: k, w: w, h: h, nodes: nodes, hop: hop, occ: occ, links: make([]*sim.Resource, 4*nodes)}
	link := func(a, b int) {
		m.links[m.slot(a, b)] = sim.NewResource(k, fmt.Sprintf("link%d-%d", a, b))
	}
	for id := 0; id < nodes; id++ {
		x, y := id%w, id/w
		if x+1 < w && id+1 < nodes {
			link(id, id+1)
			link(id+1, id)
		}
		if y+1 < h && id+w < nodes {
			link(id, id+w)
			link(id+w, id)
		}
	}
	return m
}

// slot indexes the directed edge from a to a neighbor b in links: a's four
// edges lead to a+1, a-1, a+w and a-w, in that order. A non-neighbor b
// maps to -1.
func (m *Mesh) slot(a, b int) int {
	switch b - a {
	case 1:
		return 4 * a
	case -1:
		return 4*a + 1
	case m.w:
		return 4*a + 2
	case -m.w:
		return 4*a + 3
	}
	return -1
}

// Hops returns the Manhattan distance between two nodes.
func (m *Mesh) Hops(from, to int) int {
	fx, fy := from%m.w, from/m.w
	tx, ty := to%m.w, to/m.w
	dx, dy := tx-fx, ty-fy
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// nextHop is dimension-ordered (X then Y) routing; on a ragged mesh (the
// last row shorter than the rest) an X-move into a missing node is
// replaced by the Y-move, which always exists.
func (m *Mesh) nextHop(cur, to int) int {
	cx, cy := cur%m.w, cur/m.w
	tx, ty := to%m.w, to/m.w
	yMove := func() int {
		if cy < ty {
			return cur + m.w
		}
		return cur - m.w
	}
	switch {
	case cx < tx:
		if cur+1 < m.nodes {
			return cur + 1
		}
		return yMove()
	case cx > tx:
		return cur - 1
	case cy != ty:
		n := yMove()
		if n >= m.nodes {
			// Moving down into a shorter last row: step left first.
			return cur - 1
		}
		return n
	}
	return cur
}

// Route sends a message from one node to another, occupying each link on
// the dimension-ordered path and paying the per-hop latency; done runs at
// delivery. sp is the sending transaction's span (nil when untraced): each
// link crossed opens one child span, so per-hop queueing is visible in the
// trace.
func (m *Mesh) Route(from, to int, sp *span.Span, done sim.Actor) {
	if from == to {
		m.k.AfterTask(2, done)
		return
	}
	r := m.routes.Get()
	r.m, r.cur, r.to, r.span, r.done = m, from, to, sp, done
	r.step()
}

// meshRoute is one message in flight on the mesh: an Actor that walks
// itself link by link, holding each link for its occupancy and then
// paying the hop latency.
type meshRoute struct {
	m        *Mesh
	cur, to  int
	next     int
	span     *span.Span // the sending transaction's span
	link     *span.Span // child span of the link being crossed
	linkDone bool       // the link is held: pay the hop latency next
	done     sim.Actor
}

// step starts the next hop from cur, or delivers at the destination.
func (r *meshRoute) step() {
	m := r.m
	if r.cur == r.to {
		done := r.done
		r.done, r.span, r.link = nil, nil, nil
		m.routes.Put(r)
		done.Act()
		return
	}
	r.next = m.nextHop(r.cur, r.to)
	var link *sim.Resource
	if i := m.slot(r.cur, r.next); i >= 0 {
		link = m.links[i]
	}
	if link == nil {
		panic(fmt.Sprintf("memsys: mesh has no link %d->%d", r.cur, r.next))
	}
	if m.rec != nil {
		m.rec.MeshHop(r.cur, r.next)
	}
	r.link = r.span.Child(span.KSegLink, r.cur)
	r.linkDone = false
	link.AcquireTask(sim.Time(m.occ), r)
}

// Act implements sim.Actor.
func (r *meshRoute) Act() {
	if !r.linkDone {
		r.linkDone = true
		r.m.k.AfterTask(sim.Time(r.m.hop), r)
		return
	}
	r.link.End()
	r.cur = r.next
	r.step()
}

// AttachMesh switches the node's outbound messaging to the mesh.
func (n *Node) AttachMesh(m *Mesh) { n.mesh = m }
